package value

import (
	"fmt"
	"sync"

	"repro/internal/interval"
)

// ID is a dense interned handle for a Value. Within one Interner, two
// Values are equal iff their IDs are equal, so the hot paths of the
// engine — tuple dedup, index probes, homomorphism unification, egd
// union-find — compare and hash plain uint32s instead of rendering
// values to strings. IDs are only meaningful relative to the Interner
// that issued them; they must never be compared across interners.
type ID uint32

// NoID is the reserved sentinel for "no value" (an unbound variable slot,
// a failed lookup). It is never issued by an Interner.
const NoID ID = ^ID(0)

// nullKey identifies a labeled null: family and (optional) projection
// time point.
type nullKey struct {
	fam uint64
	tp  interval.Time
}

// annKey identifies an interval-annotated null: family and annotation.
type annKey struct {
	fam uint64
	iv  interval.Interval
}

// Interner maps Values to dense IDs and back. It is safe for concurrent
// use: Intern takes a write lock only when the value is new, and Resolve,
// KindOf, and Lookup are read-locked. Lookups are dispatched to per-kind
// maps with compact fixed-size keys (a string only for constants), which
// hashes much faster — and stores much less — than keying one map by the
// full Value struct. The zero Interner is not usable; construct with
// NewInterner.
type Interner struct {
	mu     sync.RWMutex
	consts map[string]ID
	nulls  map[nullKey]ID
	anns   map[annKey]ID
	ivs    map[interval.Interval]ID
	vals   []Value
	// kinds mirrors vals so the union-find's constant-absorption check is
	// one slice load, without materializing the Value.
	kinds []Kind
}

// NewInterner returns an empty interner. The per-kind maps are presized
// a little: cold bulk loads (a store ingesting a corpus) otherwise spend
// most of their time growing maps through the first few doublings.
func NewInterner() *Interner {
	return &Interner{
		consts: make(map[string]ID, 64),
		nulls:  make(map[nullKey]ID, 8),
		anns:   make(map[annKey]ID, 32),
		ivs:    make(map[interval.Interval]ID, 32),
	}
}

// NewInternerFrom returns a new interner pre-seeded with every value
// base has interned, issuing identical IDs for them; values interned
// afterwards get fresh IDs independent of base. base is read-locked
// during the copy and never mutated. This is the per-run interner
// pattern: a long-lived exchange keeps a frozen compile-time interner
// holding just its mapping domain and clones it per run, so per-run
// values are released with the run instead of accumulating forever.
func NewInternerFrom(base *Interner) *Interner {
	base.mu.RLock()
	defer base.mu.RUnlock()
	in := &Interner{
		consts: make(map[string]ID, len(base.consts)+16),
		nulls:  make(map[nullKey]ID, len(base.nulls)+8),
		anns:   make(map[annKey]ID, len(base.anns)+16),
		ivs:    make(map[interval.Interval]ID, len(base.ivs)+16),
		vals:   append(make([]Value, 0, len(base.vals)+32), base.vals...),
		kinds:  append(make([]Kind, 0, len(base.kinds)+32), base.kinds...),
	}
	for k, v := range base.consts {
		in.consts[k] = v
	}
	for k, v := range base.nulls {
		in.nulls[k] = v
	}
	for k, v := range base.anns {
		in.anns[k] = v
	}
	for k, v := range base.ivs {
		in.ivs[k] = v
	}
	return in
}

// lookupLocked finds v's ID; the caller holds mu (read or write).
func (in *Interner) lookupLocked(v Value) (ID, bool) {
	switch v.K {
	case Const:
		id, ok := in.consts[v.Str]
		return id, ok
	case Null:
		id, ok := in.nulls[nullKey{v.ID, v.TP}]
		return id, ok
	case AnnNull:
		id, ok := in.anns[annKey{v.ID, v.Iv}]
		return id, ok
	case IntervalVal:
		id, ok := in.ivs[v.Iv]
		return id, ok
	}
	return NoID, false
}

// storeLocked records a fresh id for v; the caller holds mu for writing.
func (in *Interner) storeLocked(v Value, id ID) {
	switch v.K {
	case Const:
		in.consts[v.Str] = id
	case Null:
		in.nulls[nullKey{v.ID, v.TP}] = id
	case AnnNull:
		in.anns[annKey{v.ID, v.Iv}] = id
	case IntervalVal:
		in.ivs[v.Iv] = id
	default:
		panic(fmt.Sprintf("value: cannot intern %v value %v", v.K, v))
	}
}

// Intern returns the ID for v, issuing a fresh one on first sight.
func (in *Interner) Intern(v Value) ID {
	in.mu.RLock()
	id, ok := in.lookupLocked(v)
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	id = in.internLocked(v)
	in.mu.Unlock()
	return id
}

// internLocked issues or returns the ID for v; the caller holds mu.
func (in *Interner) internLocked(v Value) ID {
	if id, ok := in.lookupLocked(v); ok { // raced with another writer
		return id
	}
	id := ID(len(in.vals))
	if id == NoID {
		panic("value: interner overflow (2^32-1 distinct values)")
	}
	in.storeLocked(v, id)
	in.vals = append(in.vals, v)
	in.kinds = append(in.kinds, v.K)
	return id
}

// InternConstBytes is Intern(NewConst(string(b))) for a constant read
// straight out of a decode buffer: the lookup keys the map by b's bytes,
// so the constant's string is allocated only when it is new. b is not
// retained.
func (in *Interner) InternConstBytes(b []byte) ID {
	in.mu.RLock()
	id, ok := in.consts[string(b)]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	id = in.internLocked(NewConst(string(b)))
	in.mu.Unlock()
	return id
}

// Lookup returns the ID previously issued for v, without interning it.
// ok is false when v has never been interned — in that case no stored
// tuple of any store sharing this interner can contain v.
func (in *Interner) Lookup(v Value) (ID, bool) {
	in.mu.RLock()
	id, ok := in.lookupLocked(v)
	in.mu.RUnlock()
	return id, ok
}

// Resolve returns the Value for an issued ID. It panics on NoID or an ID
// from a different interner (out of range), which indicates corruption.
func (in *Interner) Resolve(id ID) Value {
	in.mu.RLock()
	v := in.vals[id]
	in.mu.RUnlock()
	return v
}

// KindOf returns the Kind of an issued ID without materializing the Value.
func (in *Interner) KindOf(id ID) Kind {
	in.mu.RLock()
	k := in.kinds[id]
	in.mu.RUnlock()
	return k
}

// Len returns the number of distinct values interned so far; issued IDs
// are exactly [0, Len).
func (in *Interner) Len() int {
	in.mu.RLock()
	n := len(in.vals)
	in.mu.RUnlock()
	return n
}

// InternAll interns a tuple, appending the IDs to dst (which may be
// nil). The read lock is taken once for the whole tuple; only positions
// holding never-seen values fall back to the write lock.
func (in *Interner) InternAll(dst []ID, tup []Value) []ID {
	base := len(dst)
	misses := 0
	in.mu.RLock()
	for _, v := range tup {
		id, ok := in.lookupLocked(v)
		if !ok {
			id = NoID
			misses++
		}
		dst = append(dst, id)
	}
	in.mu.RUnlock()
	if misses == 0 {
		return dst
	}
	in.mu.Lock()
	for i, v := range tup {
		if dst[base+i] == NoID {
			dst[base+i] = in.internLocked(v)
		}
	}
	in.mu.Unlock()
	return dst
}

// LookupAll looks up a tuple without interning, appending the IDs to
// dst. ok is false when any value has never been interned; dst is then
// returned truncated to its original length, so buffers can be reused
// across calls.
func (in *Interner) LookupAll(dst []ID, tup []Value) ([]ID, bool) {
	base := len(dst)
	ok := true
	in.mu.RLock()
	for _, v := range tup {
		id, found := in.lookupLocked(v)
		if !found {
			ok = false
			break
		}
		dst = append(dst, id)
	}
	in.mu.RUnlock()
	if !ok {
		return dst[:base], false
	}
	return dst, true
}

// ResolveAll resolves a row of IDs, appending the Values to dst.
func (in *Interner) ResolveAll(dst []Value, ids []ID) []Value {
	in.mu.RLock()
	for _, id := range ids {
		dst = append(dst, in.vals[id])
	}
	in.mu.RUnlock()
	return dst
}

// String identifies the interner for debugging.
func (in *Interner) String() string {
	return fmt.Sprintf("Interner(%d values)", in.Len())
}

// Hash64 is an incremental word-wise FNV-1a accumulator, the one hash
// used for every identity-bucketing structure in the engine (tuple
// dedup, fact data-grouping, match-set dedup). Collisions are legal
// everywhere it is used — each caller confirms candidates with a real
// equality check — so speed wins over mixing quality. Start from
// NewHash64 and fold words/strings in; the accumulator is a value, so
// each fold returns the updated hash.
type Hash64 uint64

// NewHash64 returns the FNV-1a offset basis.
func NewHash64() Hash64 { return 14695981039346656037 }

const hashPrime64 = 1099511628211

// Word folds one 64-bit word into the hash.
func (h Hash64) Word(x uint64) Hash64 {
	return (h ^ Hash64(x)) * hashPrime64
}

// String folds a string into the hash byte-wise, building no
// intermediate string.
func (h Hash64) String(s string) Hash64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hash64(s[i])) * hashPrime64
	}
	return h
}

// Sum returns the accumulated hash.
func (h Hash64) Sum() uint64 { return uint64(h) }

// HashIDs hashes an ID row — the tuple dedup key of the storage layer.
// One xor/multiply per ID, no strings built.
func HashIDs(ids []ID) uint64 {
	h := NewHash64()
	for _, id := range ids {
		h = h.Word(uint64(id))
	}
	return h.Sum()
}
