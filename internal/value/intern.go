package value

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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

// Interner maps Values to dense IDs and back. A mutable interner is
// safe for concurrent use: Intern takes a write lock only when the value
// is new, and Resolve, KindOf and Lookup are read-locked. Lookups are
// dispatched to per-kind maps with compact fixed-size keys (a string
// only for constants), which hashes much faster — and stores much less —
// than keying one map by the full Value struct. The zero Interner is not
// usable; construct with NewInterner, NewInternerFromValues or
// NewOverlay.
//
// Freeze makes an interner immutable. A frozen interner is read without
// the lock — Resolve and KindOf are slice loads — and interning a value
// it does not hold panics. New values go into an overlay (NewOverlay): a
// mutable interner layered on a frozen parent, which issues IDs from the
// parent's Len upward and looks every value up in its frozen ancestors
// first. So an ID the parent issued means the same value in the overlay,
// and stores over the two interners share rows without translating
// them. This is how every chase run interns into one overlay over its
// source's frozen interner.
type Interner struct {
	// chain holds the frozen ancestors, root first; base is the first ID
	// this level issues (the parent's Len, 0 for a root).
	chain []*Interner
	base  ID
	// serial identifies this level. absorbed holds, on a root that
	// NewOverlay built by flattening a chain, the serials of the levels
	// it copied, so Extends still recognizes them.
	serial   uint64
	absorbed []uint64

	frozen atomic.Bool
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

// serials numbers interner levels for Extends.
var serials atomic.Uint64

// maxDepth bounds an overlay chain: NewOverlay flattens a parent this
// deep into one frozen level first, so a lookup probes at most maxDepth
// levels however long a chain of runs grows.
const maxDepth = 3

// NewInterner returns an empty interner. The per-kind maps are presized
// a little: cold bulk loads (a store ingesting a corpus) otherwise spend
// most of their time growing maps through the first few doublings.
func NewInterner() *Interner {
	return &Interner{
		serial: serials.Add(1),
		consts: make(map[string]ID, 64),
		nulls:  make(map[nullKey]ID, 8),
		anns:   make(map[annKey]ID, 32),
		ivs:    make(map[interval.Interval]ID, 32),
	}
}

// NewOverlay returns an empty mutable interner layered on parent, which
// must be frozen: the overlay issues IDs from parent.Len() upward, and
// interning or looking up a value parent holds returns parent's ID and
// adds nothing. When parent's chain is already maxDepth levels deep, it
// is first flattened into one frozen level with the same IDs
// (NewInternerFromValues over parent.Values()).
func NewOverlay(parent *Interner) *Interner {
	if !parent.Frozen() {
		panic("value: NewOverlay on a mutable interner: freeze the parent first")
	}
	if parent.Depth() >= maxDepth {
		parent = parent.flatten()
	}
	chain := make([]*Interner, len(parent.chain)+1)
	copy(chain, parent.chain)
	chain[len(parent.chain)] = parent
	return &Interner{chain: chain, base: ID(parent.Len()), serial: serials.Add(1)}
}

// Writable returns an interner new values may go into whose IDs extend
// in's: in itself while it is mutable, a new overlay on it once frozen.
func (in *Interner) Writable() *Interner {
	if in.Frozen() {
		return NewOverlay(in)
	}
	return in
}

// flatten copies a frozen chain into one frozen root holding the same
// IDs.
func (in *Interner) flatten() *Interner {
	out, err := NewInternerFromValues(in.Values())
	if err != nil {
		panic(err) // an interner's own table is always a valid table
	}
	out.absorbed = append(out.absorbed, in.root().absorbed...)
	for _, p := range in.chain {
		out.absorbed = append(out.absorbed, p.serial)
	}
	out.absorbed = append(out.absorbed, in.serial)
	out.Freeze()
	return out
}

// root returns the bottom level of in's chain.
func (in *Interner) root() *Interner {
	if len(in.chain) > 0 {
		return in.chain[0]
	}
	return in
}

// Freeze makes the interner immutable: afterwards it is read without the
// lock, and interning a value it does not hold panics. Idempotent.
func (in *Interner) Freeze() {
	if in.frozen.Load() {
		return
	}
	in.mu.Lock()
	in.frozen.Store(true)
	in.mu.Unlock()
}

// Frozen reports whether the interner has been frozen.
func (in *Interner) Frozen() bool { return in.frozen.Load() }

// Depth returns the number of levels of the interner's chain: 1 for an
// interner built by NewInterner or NewInternerFromValues.
func (in *Interner) Depth() int { return len(in.chain) + 1 }

// Extends reports whether every ID p has issued means the same value in
// in: in is p, p is one of in's frozen ancestors, or p is a level that a
// flattening copied into in's root.
func (in *Interner) Extends(p *Interner) bool {
	if in == p {
		return true
	}
	for i := len(in.chain) - 1; i >= 0; i-- {
		if in.chain[i] == p {
			return true
		}
	}
	return slices.Contains(in.root().absorbed, p.serial)
}

// local finds v's ID in this level alone; the caller holds mu (read or
// write) unless the level is frozen.
func (in *Interner) local(v Value) (ID, bool) {
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

// find looks v up in the frozen ancestors, then in this level; the
// caller holds mu unless the interner is frozen.
func (in *Interner) find(v Value) (ID, bool) {
	for _, p := range in.chain {
		if id, ok := p.local(v); ok {
			return id, true
		}
	}
	return in.local(v)
}

// rlock read-locks a mutable interner and reports whether it did; a
// frozen one is read without the lock.
func (in *Interner) rlock() bool {
	if in.frozen.Load() {
		return false
	}
	in.mu.RLock()
	return true
}

// storeLocked records a fresh id for v; the caller holds mu for writing.
// An overlay's maps are made on first use.
func (in *Interner) storeLocked(v Value, id ID) {
	switch v.K {
	case Const:
		if in.consts == nil {
			in.consts = make(map[string]ID)
		}
		in.consts[v.Str] = id
	case Null:
		if in.nulls == nil {
			in.nulls = make(map[nullKey]ID)
		}
		in.nulls[nullKey{v.ID, v.TP}] = id
	case AnnNull:
		if in.anns == nil {
			in.anns = make(map[annKey]ID)
		}
		in.anns[annKey{v.ID, v.Iv}] = id
	case IntervalVal:
		if in.ivs == nil {
			in.ivs = make(map[interval.Interval]ID)
		}
		in.ivs[v.Iv] = id
	default:
		panic(fmt.Sprintf("value: cannot intern %v value %v", v.K, v))
	}
}

// Intern returns the ID for v, issuing a fresh one on first sight.
func (in *Interner) Intern(v Value) ID {
	if id, ok := in.Lookup(v); ok {
		return id
	}
	return in.internNew(v)
}

// internNew is internLocked under the write lock, released even when a
// frozen interner panics.
func (in *Interner) internNew(v Value) ID {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.internLocked(v)
}

// internLocked issues or returns the ID for v, which no ancestor holds;
// the caller holds mu for writing.
func (in *Interner) internLocked(v Value) ID {
	if in.frozen.Load() {
		panic(fmt.Sprintf("value: interning %v into a frozen interner: a frozen interner is immutable and read without locks; intern into an overlay (NewOverlay) instead", v))
	}
	if id, ok := in.local(v); ok { // raced with another writer
		return id
	}
	id := in.base + ID(len(in.vals))
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
	for _, p := range in.chain {
		if id, ok := p.consts[string(b)]; ok {
			return id
		}
	}
	locked := in.rlock()
	id, ok := in.consts[string(b)]
	if locked {
		in.mu.RUnlock()
	}
	if ok {
		return id
	}
	return in.internNew(NewConst(string(b)))
}

// Lookup returns the ID previously issued for v, without interning it.
// ok is false when v has never been interned — in that case no stored
// tuple of any store sharing this interner can contain v.
func (in *Interner) Lookup(v Value) (ID, bool) {
	locked := in.rlock()
	id, ok := in.find(v)
	if locked {
		in.mu.RUnlock()
	}
	return id, ok
}

// level returns the level of the chain that issued id; the caller holds
// mu unless the interner is frozen.
func (in *Interner) level(id ID) *Interner {
	if id >= in.base {
		return in
	}
	i := len(in.chain) - 1
	for in.chain[i].base > id {
		i--
	}
	return in.chain[i]
}

// Resolve returns the Value for an issued ID. It panics on NoID or an ID
// from a different interner (out of range), which indicates corruption.
func (in *Interner) Resolve(id ID) Value {
	if in.frozen.Load() || id < in.base {
		l := in.level(id)
		return l.vals[id-l.base]
	}
	in.mu.RLock()
	v := in.vals[id-in.base]
	in.mu.RUnlock()
	return v
}

// KindOf returns the Kind of an issued ID without materializing the Value.
func (in *Interner) KindOf(id ID) Kind {
	if in.frozen.Load() || id < in.base {
		l := in.level(id)
		return l.kinds[id-l.base]
	}
	in.mu.RLock()
	k := in.kinds[id-in.base]
	in.mu.RUnlock()
	return k
}

// Len returns the number of distinct values interned so far across the
// chain; issued IDs are exactly [0, Len).
func (in *Interner) Len() int {
	locked := in.rlock()
	n := int(in.base) + len(in.vals)
	if locked {
		in.mu.RUnlock()
	}
	return n
}

// InternAll interns a tuple, appending the IDs to dst (which may be
// nil). The read lock is taken once for the whole tuple; only positions
// holding never-seen values fall back to the write lock.
func (in *Interner) InternAll(dst []ID, tup []Value) []ID {
	base := len(dst)
	misses := 0
	locked := in.rlock()
	for _, v := range tup {
		id, ok := in.find(v)
		if !ok {
			id = NoID
			misses++
		}
		dst = append(dst, id)
	}
	if locked {
		in.mu.RUnlock()
	}
	if misses == 0 {
		return dst
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, v := range tup {
		if dst[base+i] == NoID {
			dst[base+i] = in.internLocked(v)
		}
	}
	return dst
}

// LookupAll looks up a tuple without interning, appending the IDs to
// dst. ok is false when any value has never been interned; dst is then
// returned truncated to its original length, so buffers can be reused
// across calls.
func (in *Interner) LookupAll(dst []ID, tup []Value) ([]ID, bool) {
	base := len(dst)
	ok := true
	locked := in.rlock()
	for _, v := range tup {
		id, found := in.find(v)
		if !found {
			ok = false
			break
		}
		dst = append(dst, id)
	}
	if locked {
		in.mu.RUnlock()
	}
	if !ok {
		return dst[:base], false
	}
	return dst, true
}

// ResolveAll resolves a row of IDs, appending the Values to dst.
func (in *Interner) ResolveAll(dst []Value, ids []ID) []Value {
	locked := in.rlock()
	for _, id := range ids {
		l := in.level(id)
		dst = append(dst, l.vals[id-l.base])
	}
	if locked {
		in.mu.RUnlock()
	}
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
