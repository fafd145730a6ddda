package storage

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/value"
)

// SegmentDump is the physical form of one fixed-arity columnar segment:
// Cols[p][i] is position p of the segment's i-th row and Rows[i] is that
// row's global row number. The slices are shared with (or adopted into)
// the relation — see Dump and NewFrozenStore for the ownership contract.
type SegmentDump struct {
	Arity int
	Rows  []int
	Cols  [][]value.ID
}

// RelDump is the complete physical representation of a relation: the
// global row-number space, the row-validity bitmap (exactly
// ceil(NumRows/64) words, insertion growth order), and one segment per
// arity class. Everything else a relation carries — segment locations,
// dedup buckets, posting lists — is derivable from these three, and a
// relation holds no decoded form of its rows, which is what makes the
// dump the serialization boundary of the storage layer.
type RelDump struct {
	NumRows  int
	Live     []uint64
	Segments []SegmentDump
}

// Dump returns the physical representation of a frozen relation. The
// returned slices alias the relation's own storage — they must not be
// mutated — which is legal exactly because the relation is frozen; Dump
// panics on a mutable relation.
func (r *Rel) Dump() RelDump {
	if !r.frozen {
		panic(fmt.Sprintf("storage: Dump of mutable relation %q: freeze the store first", r.name))
	}
	d := RelDump{NumRows: len(r.loc), Live: r.live, Segments: make([]SegmentDump, len(r.segs))}
	for i, s := range r.segs {
		d.Segments[i] = SegmentDump{Arity: s.arity, Rows: s.rows, Cols: s.cols}
	}
	return d
}

// NewFrozenStore reconstructs a frozen store from per-relation physical
// dumps and the interner their ID columns refer to. The dump slices are
// adopted, not copied — they may alias a read-only mapping (the mmap
// snapshot path) and must not be mutated afterwards — so loading costs
// only the derived structures: segment locations, dedup buckets and
// posting lists are rebuilt here, exactly as Freeze would have built
// them on the original. No row is decoded; a read decodes the row it
// needs from the adopted columns.
//
// Every structural invariant a relation maintains is re-validated before
// adoption — bitmap length and trailing bits, exactly-once row coverage,
// per-segment column shapes, unique arities, value IDs within the
// interner's issued range, no duplicate live rows — and a violation
// returns an error rather than panicking, so corrupt or adversarial
// dumps cannot produce a store that fails later and loudly.
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
	idLimit := in.Len()
	r := newRel(name, in)
	r.loc = make([]rowLoc, n)
	r.live = d.Live
	seen := make([]bool, n)
	total := 0
	arities := make(map[int]bool, len(d.Segments))
	r.segs = make([]*segment, 0, len(d.Segments))
	for si, sd := range d.Segments {
		if sd.Arity < 1 {
			return nil, fmt.Errorf("segment %d: arity %d (must be ≥ 1)", si, sd.Arity)
		}
		if arities[sd.Arity] {
			return nil, fmt.Errorf("two segments of arity %d", sd.Arity)
		}
		arities[sd.Arity] = true
		if len(sd.Cols) != sd.Arity {
			return nil, fmt.Errorf("segment %d: %d columns for arity %d", si, len(sd.Cols), sd.Arity)
		}
		for p, col := range sd.Cols {
			if len(col) != len(sd.Rows) {
				return nil, fmt.Errorf("segment %d: column %d has %d entries for %d rows", si, p, len(col), len(sd.Rows))
			}
			for _, id := range col {
				if int(id) >= idLimit {
					return nil, fmt.Errorf("segment %d: column %d holds value ID %d beyond interner table (%d values)", si, p, id, idLimit)
				}
			}
		}
		for off, row := range sd.Rows {
			if row < 0 || row >= n {
				return nil, fmt.Errorf("segment %d: global row %d out of range [0,%d)", si, row, n)
			}
			if seen[row] {
				return nil, fmt.Errorf("global row %d appears in two segment slots", row)
			}
			seen[row] = true
			r.loc[row] = rowLoc{seg: int32(si), off: int32(off)}
		}
		total += len(sd.Rows)
		r.segs = append(r.segs, &segment{arity: sd.Arity, cols: sd.Cols, rows: sd.Rows})
	}
	if total != n {
		return nil, fmt.Errorf("segments hold %d rows, relation declares %d", total, n)
	}
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
