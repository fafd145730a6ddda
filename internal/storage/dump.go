package storage

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/value"
)

// RelDump is the complete physical representation of a relation: the
// row-number space, the row-validity bitmap (exactly ceil(NumRows/64)
// words, insertion growth order), and one ID column per position, Cols[p]
// holding position p of every row, indexed by row number (no columns for
// a relation with no rows). Everything else a relation carries — dedup
// buckets, posting lists — is derivable from these three, and a relation
// holds no decoded form of its rows, which is what makes the dump the
// serialization boundary of the storage layer. The slices are shared with
// (or adopted into) the relation — see Dump and NewFrozenStore for the
// ownership contract.
type RelDump struct {
	NumRows int
	Live    []uint64
	Cols    [][]value.ID
}

// Dump returns the physical representation of a frozen relation. The
// returned slices alias the relation's own storage — they must not be
// mutated — which is legal exactly because the relation is frozen; Dump
// panics on a mutable relation.
func (r *Rel) Dump() RelDump {
	if !r.frozen {
		panic(fmt.Sprintf("storage: Dump of mutable relation %q: freeze the store first", r.name))
	}
	return RelDump{NumRows: r.rows, Live: r.live, Cols: r.cols}
}

// NewFrozenStore reconstructs a frozen store from per-relation physical
// dumps and the interner their ID columns refer to. The dump slices are
// adopted, not copied — they may alias a read-only mapping (the mmap
// snapshot path) and must not be mutated afterwards — so loading costs
// only the derived structures: dedup buckets and posting lists are
// rebuilt here, exactly as Freeze would have built them on the original.
// No row is decoded; a read decodes the row it needs from the adopted
// columns, where a row's number is its offset.
//
// Every structural invariant a relation maintains is re-validated before
// adoption — bitmap length and trailing bits, column shapes, value IDs
// within the interner's issued range, no duplicate live rows — and a
// violation returns an error rather than panicking, so corrupt or
// adversarial dumps cannot produce a store that fails later and loudly.
func NewFrozenStore(in *value.Interner, rels map[string]RelDump) (*Store, error) {
	if in == nil {
		return nil, fmt.Errorf("storage: NewFrozenStore: nil interner")
	}
	s := &Store{in: in, rels: make(map[string]*Rel, len(rels))}
	for name, d := range rels {
		r, err := buildFrozenRel(name, in, d)
		if err != nil {
			return nil, fmt.Errorf("storage: relation %q: %w", name, err)
		}
		s.rels[name] = r
	}
	s.frozen = true
	return s, nil
}

// buildFrozenRel validates one dump and assembles the frozen relation.
func buildFrozenRel(name string, in *value.Interner, d RelDump) (*Rel, error) {
	n := d.NumRows
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("row count %d out of range", n)
	}
	if want := (n + 63) / 64; len(d.Live) != want {
		return nil, fmt.Errorf("validity bitmap has %d words, want %d for %d rows", len(d.Live), want, n)
	}
	if rem := uint(n) % 64; rem != 0 && d.Live[len(d.Live)-1]>>rem != 0 {
		return nil, fmt.Errorf("validity bitmap has bits set beyond row %d", n-1)
	}
	if (n == 0) != (len(d.Cols) == 0) {
		return nil, fmt.Errorf("%d columns for %d rows", len(d.Cols), n)
	}
	idLimit := in.Len()
	for p, col := range d.Cols {
		if len(col) != n {
			return nil, fmt.Errorf("column %d has %d entries for %d rows", p, len(col), n)
		}
		for _, id := range col {
			if int(id) >= idLimit {
				return nil, fmt.Errorf("column %d holds value ID %d beyond interner table (%d values)", p, id, idLimit)
			}
		}
	}
	r := newRel(name, in)
	r.arity, r.rows, r.cols, r.live = len(d.Cols), n, d.Cols, d.Live
	liveCount := 0
	for _, w := range d.Live {
		liveCount += bits.OnesCount64(w)
	}
	r.dead = n - liveCount
	r.dedup = make(map[uint64]int, liveCount)
	for row := 0; row < n; row++ {
		if !r.Alive(row) {
			continue
		}
		h := r.hashRow(row)
		r.scratch = r.appendRowIDs(r.scratch[:0], row)
		if r.lookupHash(h, r.scratch) >= 0 {
			return nil, fmt.Errorf("duplicate live row %d", row)
		}
		r.attachDedup(h, row)
	}
	r.Freeze()
	return r, nil
}

// Pin ties v's lifetime to the store's: as long as the store is
// reachable, so is v. The snapshot loader pins the mapped file behind a
// store whose columns alias mmap'd memory, so the mapping cannot be
// unmapped by a finalizer while the store is still in use. Pin is a
// construction-time call: it must happen before the store is shared.
func (s *Store) Pin(v any) { s.pins = append(s.pins, v) }
