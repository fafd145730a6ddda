// Package storage implements the in-memory relational storage engine the
// rest of the system is built on. Relations are stored column-wise: each
// relation is a set of fixed-arity segments, and each segment keeps one
// dense []value.ID column per attribute position, so the homomorphism
// engine verifies a candidate row by indexing straight into the columns
// it cares about instead of chasing per-tuple pointers. Secondary indexes
// are sorted posting lists (position, value-ID) → ascending row numbers,
// which support both index-nested-loop probes and sorted-list
// intersection for conjunctive candidate sets.
//
// Representation. Every value entering a store is interned into a dense
// value.ID by the store's value.Interner. A tuple of arity k lands in the
// relation's arity-k segment as one entry per column; the caller-facing
// []value.Value form is a decode cache, materialized lazily for rows that
// were inserted as raw IDs (Tuple). Rows are addressed by a stable global
// row number; a row-validity bitmap marks rows that were collapsed into
// duplicates by an in-place substitution (SubstituteIDs, the egd-rewrite
// fast path) — dead rows keep their number but are skipped by Len,
// iteration, dedup, and the posting lists. Duplicate elimination hashes
// the ID row (value.HashIDs) into buckets and compares against the
// columns on collision; no strings are built on the insert/lookup path.
//
// SubstituteIDs rewrites only the rows that contain a substituted ID,
// found through a lazily built reverse index (value-ID → rows containing
// it); unaffected rows — the vast majority in a typical egd round — are
// not touched, hashed, or copied. Stores sharing one Interner (see
// NewStoreWith) agree on IDs, which lets the chase rewrite and copy rows
// between instances without re-rendering values.
//
// Plans compiled by the homomorphism engine snapshot column slice
// headers, so relations must not be mutated while a plan over them runs.
// Every mutation bumps the relation's epoch counter (Epoch), which
// compiled plans revalidate after each match callback — a violation
// panics loudly instead of silently reading stale columns.
//
// Concurrency contract: a store is mutable-until-frozen. While mutable it
// is single-goroutine (inserts, substitutions, and the lazy caches behind
// Tuple/Contains/CandidatesID all write unsynchronized state). Freeze
// eagerly builds every lazy structure reads consult — posting-list
// indexes on every position, decoded tuples — and then flips the
// store into an immutable published state: every read path is
// mutation-free afterwards, so any number of goroutines may probe one
// frozen store concurrently (the homomorphism engine additionally skips
// epoch revalidation over frozen relations, letting one compiled plan
// shape execute from many goroutines). Writing to a frozen store panics
// loudly, mirroring the epoch-revalidation contract; Clone returns a
// mutable copy when a derived store must be rewritten.
//
// The store is deliberately representation-agnostic: a tuple is a slice
// of values, and both views use it — the concrete view stores a fact
// R+(a, [s,e)) as the tuple ⟨a..., [s,e)⟩ whose last component is an
// interval value, while abstract snapshots store plain ⟨a...⟩ tuples.
// Tuples are treated as immutable once inserted; only SubstituteIDs
// rewrites stored rows, and it preserves set semantics.
package storage

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/value"
)

// segment is one fixed-arity columnar block of a relation: column p of
// the segment's i-th row is cols[p][i], and rows[i] is its global row
// number in the relation.
type segment struct {
	arity int
	cols  [][]value.ID
	rows  []int
}

// rowLoc locates a global row inside its segment.
type rowLoc struct {
	seg int32
	off int32
}

// Rel is a single relation: an append-only set of deduplicated tuples in
// columnar segments, with optional per-position posting-list indexes.
type Rel struct {
	name  string
	in    *value.Interner
	segs  []*segment
	loc   []rowLoc // global row → segment location
	live  []uint64 // validity bitmap over global rows
	dead  int      // rows invalidated by SubstituteIDs
	epoch uint64   // bumped by every mutation (insert, substitute)

	tuples [][]value.Value  // decode cache; nil entries resolve lazily
	dedup  map[uint64]int   // row hash → a live row with that hash
	over   map[uint64][]int // further live rows per hash (collisions only)

	idx map[int]map[value.ID][]int // pos → ID → sorted live rows
	rev map[value.ID][]int         // ID → rows containing it (lazy; may hold stale entries)

	scratch []value.ID // reusable insert/lookup buffer

	frozen bool // immutable and shareable; see Freeze
}

func newRel(name string, in *value.Interner) *Rel {
	return &Rel{name: name, in: in, dedup: make(map[uint64]int)}
}

// Name returns the relation name.
func (r *Rel) Name() string { return r.name }

// Len returns the number of (distinct, live) tuples.
func (r *Rel) Len() int { return len(r.loc) - r.dead }

// NumRows returns the physical row-number space: valid row arguments are
// [0, NumRows), of which Len are alive. The two differ only after an
// in-place substitution collapsed rows.
func (r *Rel) NumRows() int { return len(r.loc) }

// Epoch returns the relation's mutation epoch: a counter bumped by every
// insert and every in-place substitution. Compiled homomorphism plans
// snapshot column slice headers, so a relation must not be mutated while
// a plan over it runs; the engine records each relation's epoch at plan
// compile time and revalidates it after every match callback, turning a
// silent read of stale column headers into a loud panic. Building lazy
// caches (posting-list indexes, the reverse ID index, decoded tuples)
// does not change what a plan would read, so those do not bump the epoch.
func (r *Rel) Epoch() uint64 { return r.epoch }

// Freeze eagerly builds every lazy structure a read path can consult —
// the posting-list index on every column position and the decoded form
// of every row — and then flips the relation into an immutable state:
// all read paths (Tuple, Contains, block access, posting lookups) are
// mutation-free afterwards and safe for any number of concurrent
// readers. The reverse ID index is exempt: it feeds only substitution,
// which a frozen relation forbids, so building it would be dead weight.
// Writes to a frozen relation panic loudly. Freeze is idempotent; it
// must be called from the single goroutine that owns the still-mutable
// relation.
func (r *Rel) Freeze() {
	if r.frozen {
		return
	}
	maxArity := 0
	for _, s := range r.segs {
		if s.arity > maxArity {
			maxArity = s.arity
		}
	}
	for pos := 0; pos < maxArity; pos++ {
		r.EnsureIndex(pos)
	}
	// Decode every row — dead ones included, so no read path is ever
	// tempted to fill a cache entry after the freeze.
	for row := range r.loc {
		if r.tuples[row] == nil {
			r.scratch = r.appendRowIDs(r.scratch[:0], row)
			r.tuples[row] = r.in.ResolveAll(make([]value.Value, 0, len(r.scratch)), r.scratch)
		}
	}
	r.frozen = true
}

// Frozen reports whether the relation has been frozen.
func (r *Rel) Frozen() bool { return r.frozen }

// frozenPanic aborts a write to a frozen relation.
func (r *Rel) frozenPanic() {
	panic(fmt.Sprintf(
		"storage: relation %q is frozen: a frozen store is immutable and may be shared by concurrent readers; Clone the store for a mutable copy",
		r.name))
}

// Alive reports whether the row is live (not collapsed into a duplicate
// by SubstituteIDs).
func (r *Rel) Alive(row int) bool {
	return r.live[row>>6]&(1<<(uint(row)&63)) != 0
}

func (r *Rel) kill(row int) {
	r.live[row>>6] &^= 1 << (uint(row) & 63)
	r.dead++
}

// segFor returns the segment for the arity, creating it on first use.
func (r *Rel) segFor(arity int) (int32, *segment) {
	for i, s := range r.segs {
		if s.arity == arity {
			return int32(i), s
		}
	}
	s := &segment{arity: arity, cols: make([][]value.ID, arity)}
	r.segs = append(r.segs, s)
	return int32(len(r.segs) - 1), s
}

// arityOf returns the arity of a row.
func (r *Rel) arityOf(row int) int { return r.segs[r.loc[row].seg].arity }

// appendRowIDs appends row's IDs to dst, which may be nil.
func (r *Rel) appendRowIDs(dst []value.ID, row int) []value.ID {
	l := r.loc[row]
	s := r.segs[l.seg]
	for p := 0; p < s.arity; p++ {
		dst = append(dst, s.cols[p][l.off])
	}
	return dst
}

// Row returns the interned form of row i as a fresh slice.
func (r *Rel) Row(i int) []value.ID {
	return r.appendRowIDs(make([]value.ID, 0, r.arityOf(i)), i)
}

// Tuple returns row i as values, resolving and caching it on first use
// for rows inserted as raw IDs. The caller must not mutate it. The cache
// fill is unsynchronized, so a mutable relation is single-goroutine; a
// frozen relation has every row pre-decoded and is safe for concurrent
// Tuple calls.
func (r *Rel) Tuple(i int) []value.Value {
	if t := r.tuples[i]; t != nil {
		return t
	}
	r.scratch = r.appendRowIDs(r.scratch[:0], i)
	t := r.in.ResolveAll(make([]value.Value, 0, len(r.scratch)), r.scratch)
	r.tuples[i] = t
	return t
}

// Arity returns the arity of row i.
func (r *Rel) Arity(i int) int { return r.arityOf(i) }

// ValueAt returns position pos of row i without decoding the rest of the
// row: from the decode cache when the row is decoded, else resolved
// straight from its column. Unlike Tuple it never fills the cache, so it
// allocates nothing and writes nothing, on mutable relations too.
func (r *Rel) ValueAt(i, pos int) value.Value {
	if t := r.tuples[i]; t != nil {
		return t[pos]
	}
	l := r.loc[i]
	return r.in.Resolve(r.segs[l.seg].cols[pos][l.off])
}

// hashRow hashes a stored row the same way value.HashIDs hashes its
// slice form.
func (r *Rel) hashRow(row int) uint64 {
	l := r.loc[row]
	s := r.segs[l.seg]
	h := value.NewHash64()
	for p := 0; p < s.arity; p++ {
		h = h.Word(uint64(s.cols[p][l.off]))
	}
	return h.Sum()
}

// rowEqual reports whether stored row equals the ID slice.
func (r *Rel) rowEqual(row int, ids []value.ID) bool {
	l := r.loc[row]
	s := r.segs[l.seg]
	if s.arity != len(ids) {
		return false
	}
	for p, id := range ids {
		if s.cols[p][l.off] != id {
			return false
		}
	}
	return true
}

// lookupHash returns the row number of a live stored row identical to
// ids under hash h, or -1.
func (r *Rel) lookupHash(h uint64, ids []value.ID) int {
	first, ok := r.dedup[h]
	if !ok {
		return -1
	}
	if r.rowEqual(first, ids) {
		return first
	}
	for _, row := range r.over[h] {
		if r.rowEqual(row, ids) {
			return row
		}
	}
	return -1
}

// lookupRow returns the row number of an identical live stored row, or -1.
func (r *Rel) lookupRow(ids []value.ID) int {
	return r.lookupHash(value.HashIDs(ids), ids)
}

// attachDedup registers a live row under its hash.
func (r *Rel) attachDedup(h uint64, row int) {
	if _, taken := r.dedup[h]; !taken {
		r.dedup[h] = row
		return
	}
	if r.over == nil {
		r.over = make(map[uint64][]int)
	}
	r.over[h] = append(r.over[h], row)
}

// detachDedup removes a row from its hash bucket.
func (r *Rel) detachDedup(h uint64, row int) {
	if r.dedup[h] == row {
		if extra := r.over[h]; len(extra) > 0 {
			r.dedup[h] = extra[0]
			if len(extra) == 1 {
				delete(r.over, h)
			} else {
				r.over[h] = extra[1:]
			}
		} else {
			delete(r.dedup, h)
		}
		return
	}
	extra := r.over[h]
	for i, got := range extra {
		if got == row {
			r.over[h] = append(extra[:i], extra[i+1:]...)
			if len(r.over[h]) == 0 {
				delete(r.over, h)
			}
			return
		}
	}
}

// insertIDs adds the interned row unless an identical live one is
// present. The ids are copied into the columns, so the caller may reuse
// the slice; tup, when non-nil, is retained as the row's decoded form.
func (r *Rel) insertIDs(ids []value.ID, tup []value.Value) bool {
	if r.frozen {
		r.frozenPanic()
	}
	h := value.HashIDs(ids)
	if r.lookupHash(h, ids) >= 0 {
		return false
	}
	r.epoch++
	row := len(r.loc)
	si, s := r.segFor(len(ids))
	off := int32(len(s.rows))
	for p, id := range ids {
		s.cols[p] = append(s.cols[p], id)
	}
	s.rows = append(s.rows, row)
	r.loc = append(r.loc, rowLoc{seg: si, off: off})
	if row>>6 >= len(r.live) {
		r.live = append(r.live, 0)
	}
	r.live[row>>6] |= 1 << (uint(row) & 63)
	r.tuples = append(r.tuples, tup)
	r.attachDedup(h, row)
	for pos, byID := range r.idx {
		if pos < len(ids) {
			byID[ids[pos]] = append(byID[ids[pos]], row)
		}
	}
	if r.rev != nil {
		for _, id := range ids {
			r.rev[id] = append(r.rev[id], row)
		}
	}
	return true
}

// insert interns and adds the tuple unless an identical one is present.
// It reports whether the tuple was added, maintaining any built indexes.
func (r *Rel) insert(tup []value.Value) bool {
	if r.frozen {
		r.frozenPanic()
	}
	r.scratch = r.in.InternAll(r.scratch[:0], tup)
	return r.insertIDs(r.scratch, tup)
}

// Contains reports whether an identical tuple is stored. Safe for
// concurrent use on a frozen relation.
func (r *Rel) Contains(tup []value.Value) bool {
	if r.frozen {
		// Frozen relations serve concurrent readers: a stack buffer
		// instead of the shared scratch field.
		var buf [12]value.ID
		ids, ok := r.in.LookupAll(buf[:0], tup)
		if !ok {
			return false
		}
		return r.lookupRow(ids) >= 0
	}
	ids, ok := r.in.LookupAll(r.scratch[:0], tup)
	r.scratch = ids[:0]
	if !ok {
		return false // a never-interned value cannot be stored
	}
	return r.lookupRow(ids) >= 0
}

// EachLive calls fn with every live row number in ascending order,
// stopping early if fn returns false.
func (r *Rel) EachLive(fn func(row int) bool) {
	for row := 0; row < len(r.loc); row++ {
		if r.Alive(row) && !fn(row) {
			return
		}
	}
}

// AppendLive appends the relation's live row numbers to dst in ascending
// order and returns the extended slice. A relation with no dead rows
// appends the full row range; one with substitution-collapsed rows walks
// the validity bitmap word-wise, so the cost is O(live + words), not
// O(rows) bit tests. Passing dst[:0] of a reused buffer makes repeated
// scans (the streaming encoder's per-relation row collection) allocation-
// free once the buffer has grown to the largest relation.
func (r *Rel) AppendLive(dst []int) []int {
	n := len(r.loc)
	if r.dead == 0 {
		for row := 0; row < n; row++ {
			dst = append(dst, row)
		}
		return dst
	}
	for wi, word := range r.live {
		base := wi << 6
		for word != 0 {
			row := base + bits.TrailingZeros64(word)
			if row >= n {
				break
			}
			dst = append(dst, row)
			word &= word - 1
		}
	}
	return dst
}

// EnsureIndex builds the posting-list index on position pos if not yet
// present. Lists hold live rows in ascending order. On a frozen relation
// every position with rows is already indexed, so the call is a pure read.
func (r *Rel) EnsureIndex(pos int) {
	if _, ok := r.idx[pos]; ok {
		return
	}
	if r.frozen {
		// Freeze indexed every position up to the maximum arity; a missing
		// position has no rows, so there is nothing to build (and building
		// would mutate shared state).
		return
	}
	if r.idx == nil {
		r.idx = make(map[int]map[value.ID][]int)
	}
	// Counting sort over the dense ID space: count rows per ID, carve
	// every posting list out of one shared backing array, fill in row
	// order (so lists stay ascending), then publish one exactly-sized map
	// entry per distinct ID. Compared to appending into per-ID slices
	// this is the difference between thousands of small allocations and
	// three on the bulk paths (Freeze, the snapshot warm-start load), and
	// the map sees one write per distinct ID instead of one per row.
	counts := make([]int32, r.in.Len())
	total, distinct := 0, 0
	for row, l := range r.loc {
		s := r.segs[l.seg]
		if pos < s.arity && r.Alive(row) {
			id := s.cols[pos][l.off]
			if counts[id] == 0 {
				distinct++
			}
			counts[id]++
			total++
		}
	}
	offs := make([]int32, len(counts))
	off := int32(0)
	for id, c := range counts {
		offs[id] = off
		off += c
	}
	backing := make([]int, total)
	for row, l := range r.loc {
		s := r.segs[l.seg]
		if pos < s.arity && r.Alive(row) {
			id := s.cols[pos][l.off]
			backing[offs[id]] = row
			offs[id]++
		}
	}
	byID := make(map[value.ID][]int, distinct)
	for id, c := range counts {
		if c > 0 {
			// Capacity-capped at the list's end: a later insert appending to
			// one list must reallocate it, never grow into its neighbor's
			// backing space.
			byID[value.ID(id)] = backing[offs[id]-c : offs[id] : offs[id]]
		}
	}
	r.idx[pos] = byID
}

// CandidatesID returns the posting list of live rows whose component pos
// equals the interned value id, building the index on first use. The
// list is sorted ascending and shared; do not mutate.
func (r *Rel) CandidatesID(pos int, id value.ID) []int {
	r.EnsureIndex(pos)
	return r.idx[pos][id]
}

// Candidates is CandidatesID for a raw value: rows whose component pos
// equals v.
func (r *Rel) Candidates(pos int, v value.Value) []int {
	id, ok := r.in.Lookup(v)
	if !ok {
		return nil
	}
	return r.CandidatesID(pos, id)
}

// HasIndex reports whether an index exists on pos (for tests and
// diagnostics).
func (r *Rel) HasIndex(pos int) bool {
	_, ok := r.idx[pos]
	return ok
}

// Interner returns the interner whose IDs this relation's rows use.
func (r *Rel) Interner() *value.Interner { return r.in }

// Block is a read-only view of one arity class of a relation, the unit
// the homomorphism engine compiles against: Col(p)[off] is position p of
// the class's off-th row, with no per-row indirection.
type Block struct {
	rel *Rel
	s   *segment
	si  int32
}

// BlockFor returns the block holding rows of the given arity; ok is
// false when the relation has no such rows (then no atom of that arity
// can match).
func (r *Rel) BlockFor(arity int) (Block, bool) {
	for i, s := range r.segs {
		if s.arity == arity {
			return Block{rel: r, s: s, si: int32(i)}, true
		}
	}
	return Block{}, false
}

// Len returns the number of rows (offsets) in the block, dead included.
func (b Block) Len() int { return len(b.s.rows) }

// Col returns column p of the block. Do not mutate.
func (b Block) Col(p int) []value.ID { return b.s.cols[p] }

// Cols returns all columns of the block. Do not mutate.
func (b Block) Cols() [][]value.ID { return b.s.cols }

// RowAt returns the global row number of the block's off-th row.
func (b Block) RowAt(off int) int { return b.s.rows[off] }

// LiveAt reports whether the block's off-th row is live.
func (b Block) LiveAt(off int) bool { return b.rel.Alive(b.s.rows[off]) }

// Offset returns the block offset of a global row, or -1 when the row
// belongs to a different arity class or is dead.
func (b Block) Offset(row int) int {
	l := b.rel.loc[row]
	if l.seg != b.si || !b.rel.Alive(row) {
		return -1
	}
	return int(l.off)
}

// Dense reports whether the block covers the whole relation with no dead
// rows — then global row numbers and block offsets coincide and Offset /
// LiveAt checks can be skipped. The answer is a snapshot: an in-place
// substitution can invalidate it, so re-ask after mutating.
func (b Block) Dense() bool {
	return b.rel.dead == 0 && len(b.s.rows) == len(b.rel.loc)
}

// ensureRev builds the reverse index ID → rows containing it. It is
// maintained on insert once built; substitution may leave stale entries
// (rows that no longer contain the ID), which consumers re-verify.
func (r *Rel) ensureRev() {
	if r.rev != nil {
		return
	}
	r.rev = make(map[value.ID][]int)
	for row, l := range r.loc {
		if !r.Alive(row) {
			continue
		}
		s := r.segs[l.seg]
		for p := 0; p < s.arity; p++ {
			id := s.cols[p][l.off]
			r.rev[id] = append(r.rev[id], row)
		}
	}
}

// substitute rewrites, in place, every live row containing one of the
// subs IDs, mapping each of the row's IDs through canon. Rows that
// collapse into an existing row are invalidated. Returns the number of
// rows actually rewritten. When touched is non-nil it is called once per
// rewritten row, in ascending row order, before the rewrite batch is
// applied — the hook the incremental delta chase uses to track which
// rows one egd round dirtied.
func (r *Rel) substitute(subs []value.ID, canon func(value.ID) value.ID, touched func(row int)) int {
	if r.frozen {
		r.frozenPanic()
	}
	if len(r.loc) == 0 {
		return 0
	}
	r.ensureRev()
	var cand []int
	for _, id := range subs {
		for _, row := range r.rev[id] {
			if r.Alive(row) {
				cand = append(cand, row)
			}
		}
	}
	if len(cand) == 0 {
		return 0
	}
	sort.Ints(cand)
	// Uniquify, and drop stale reverse-index hits: rows none of whose
	// current IDs change under canon.
	changed := cand[:0]
	for i, row := range cand {
		if i > 0 && row == cand[i-1] {
			continue
		}
		l := r.loc[row]
		s := r.segs[l.seg]
		for p := 0; p < s.arity; p++ {
			if id := s.cols[p][l.off]; canon(id) != id {
				changed = append(changed, row)
				break
			}
		}
	}
	if len(changed) == 0 {
		return 0
	}
	if touched != nil {
		for _, row := range changed {
			touched(row)
		}
	}
	r.epoch++

	// Phase 1 — detach every affected row from the dedup buckets and the
	// posting lists of its changing positions, then write the new IDs
	// into the columns. All detaches happen before any reattach so that
	// two affected rows rewriting to the same value collapse correctly
	// regardless of order.
	for _, row := range changed {
		r.detachDedup(r.hashRow(row), row)
		l := r.loc[row]
		s := r.segs[l.seg]
		for p := 0; p < s.arity; p++ {
			id := s.cols[p][l.off]
			nid := canon(id)
			if nid == id {
				continue
			}
			if byID, ok := r.idx[p]; ok {
				removePosting(byID, id, row)
			}
			s.cols[p][l.off] = nid
			r.rev[nid] = append(r.rev[nid], row)
		}
		r.tuples[row] = nil // decode cache is stale; re-resolve lazily
	}

	// Phase 2 — reattach in ascending row order: a row identical to a
	// surviving live row dies; otherwise it re-registers in the dedup
	// buckets and posting lists.
	ids := r.scratch[:0]
	for _, row := range changed {
		ids = r.appendRowIDs(ids[:0], row)
		h := value.HashIDs(ids)
		if r.lookupHash(h, ids) >= 0 {
			r.kill(row)
			// Remove from the posting lists of unchanged positions (the
			// changed ones were detached in phase 1 and never re-added).
			for p, id := range ids {
				if byID, ok := r.idx[p]; ok {
					removePosting(byID, id, row)
				}
			}
			continue
		}
		r.attachDedup(h, row)
		for p, id := range ids {
			if byID, ok := r.idx[p]; ok {
				insertPosting(byID, id, row)
			}
		}
	}
	r.scratch = ids[:0]
	return len(changed)
}

// removePosting deletes row from the sorted posting list of id, if
// present.
func removePosting(byID map[value.ID][]int, id value.ID, row int) {
	list := byID[id]
	i := sort.SearchInts(list, row)
	if i < len(list) && list[i] == row {
		list = append(list[:i], list[i+1:]...)
		if len(list) == 0 {
			delete(byID, id)
		} else {
			byID[id] = list
		}
	}
}

// insertPosting adds row to the sorted posting list of id, keeping it
// sorted and duplicate-free.
func insertPosting(byID map[value.ID][]int, id value.ID, row int) {
	list := byID[id]
	if n := len(list); n == 0 || list[n-1] < row {
		byID[id] = append(list, row) // common case: appends arrive in order
		return
	}
	i := sort.SearchInts(list, row)
	if i < len(list) && list[i] == row {
		return
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = row
	byID[id] = list
}

// IntersectPostings intersects two ascending row lists into dst
// (overwritten and returned). When the lists are heavily skewed it
// gallops through the longer one with binary search.
func IntersectPostings(dst, a, b []int) []int {
	dst = dst[:0]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= 16*len(a) {
		for _, x := range a {
			i := sort.SearchInts(b, x)
			if i < len(b) && b[i] == x {
				dst = append(dst, x)
			}
			b = b[i:]
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// Store is a set of relations sharing one value interner. NewStore gives
// every store a private interner; NewStoreWith lets related stores (a
// chase's source and target, an instance and its rewrites) share one so
// their rows are ID-compatible.
type Store struct {
	in     *value.Interner
	rels   map[string]*Rel
	frozen bool  // immutable and shareable; see Freeze
	pins   []any // lifetime anchors (mmap'd snapshot files); see Pin
}

// NewStore returns an empty store with a fresh interner.
func NewStore() *Store { return NewStoreWith(nil) }

// NewStoreWith returns an empty store using the given interner (a fresh
// one when nil).
func NewStoreWith(in *value.Interner) *Store {
	if in == nil {
		in = value.NewInterner()
	}
	return &Store{in: in, rels: make(map[string]*Rel)}
}

// Interner returns the store's interner.
func (s *Store) Interner() *value.Interner { return s.interner() }

func (s *Store) interner() *value.Interner {
	if s.in == nil { // zero-value Store
		s.in = value.NewInterner()
	}
	return s.in
}

func (s *Store) rel(name string) *Rel {
	if s.rels == nil {
		s.rels = make(map[string]*Rel)
	}
	r, ok := s.rels[name]
	if !ok {
		r = newRel(name, s.interner())
		s.rels[name] = r
	}
	return r
}

// Freeze eagerly builds every lazy structure of every relation that
// reads consult (posting lists, decoded tuples) and flips the store into
// an immutable published state: all read paths are mutation-free
// afterwards, so any number of goroutines may share the frozen store.
// Writes (Insert, InsertIDs, SubstituteIDs) panic loudly. The interner
// stays shared and thread-safe: interning new values does not touch
// frozen relation state. Freeze is idempotent and must be called from
// the goroutine that owns the still-mutable store; Clone returns a
// mutable copy.
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	for _, r := range s.rels {
		r.Freeze()
	}
	s.frozen = true
}

// Frozen reports whether the store has been frozen.
func (s *Store) Frozen() bool { return s.frozen }

// frozenPanic aborts a write to a frozen store.
func (s *Store) frozenPanic(op string) {
	panic(fmt.Sprintf(
		"storage: %s on a frozen store: a frozen store is immutable and may be shared by concurrent readers; Clone it for a mutable copy", op))
}

// Insert adds a tuple to the named relation, creating the relation on
// first use, and reports whether the tuple was new.
func (s *Store) Insert(rel string, tup []value.Value) bool {
	if s.frozen {
		s.frozenPanic("Insert")
	}
	return s.rel(rel).insert(tup)
}

// InsertIDs adds an already-interned row to the named relation. The ids
// must come from this store's interner; they are copied into the
// columns, so the caller may reuse the slice. This is the rewrite fast
// path: egd substitution maps rows ID-by-ID and reinserts them without
// rendering a single value.
func (s *Store) InsertIDs(rel string, ids []value.ID) bool {
	if s.frozen {
		s.frozenPanic("InsertIDs")
	}
	return s.rel(rel).insertIDs(ids, nil)
}

// InsertRowOf copies row i of src — a relation of a store sharing this
// store's interner — into the same-named relation of this store, as
// InsertIDs would, and shares src's decoded form of the row (tuples are
// immutable). This is the copy fast path for derived instances that
// pass most rows through unchanged: no value is rendered or re-interned.
func (s *Store) InsertRowOf(src *Rel, i int) bool {
	if s.frozen {
		s.frozenPanic("InsertRowOf")
	}
	if src.in != s.interner() {
		panic("storage: InsertRowOf between stores with different interners")
	}
	r := s.rel(src.name)
	r.scratch = src.appendRowIDs(r.scratch[:0], i)
	return r.insertIDs(r.scratch, src.tuples[i])
}

// SubstituteIDs rewrites, in place, every live row of every relation
// that contains one of the subs IDs, mapping the row's IDs through
// canon; rows that collapse into an existing row are invalidated (their
// row numbers stay allocated but dead). Only affected rows — found via
// the reverse ID index — are touched. Returns the number of rows
// rewritten. This is the incremental egd-rewrite primitive: one round's
// substitution costs O(affected), not O(store).
func (s *Store) SubstituteIDs(subs []value.ID, canon func(value.ID) value.ID) int {
	return s.SubstituteIDsTouched(subs, canon, nil)
}

// SubstituteIDsTouched is SubstituteIDs with a per-row hook: fn (when
// non-nil) is called for every row about to be rewritten, relation by
// relation in lexicographic order, rows ascending. The delta chase feeds
// the touched rows back into its dirty set so the next incremental egd
// round re-examines exactly the rows this one changed.
func (s *Store) SubstituteIDsTouched(subs []value.ID, canon func(value.ID) value.ID, fn func(rel string, row int)) int {
	if s.frozen {
		s.frozenPanic("SubstituteIDs")
	}
	if len(subs) == 0 {
		return 0
	}
	touched := 0
	for _, name := range s.Relations() {
		r := s.rels[name]
		var hook func(int)
		if fn != nil {
			hook = func(row int) { fn(name, row) }
		}
		touched += r.substitute(subs, canon, hook)
	}
	return touched
}

// Contains reports whether the identical tuple is present.
func (s *Store) Contains(rel string, tup []value.Value) bool {
	r, ok := s.rels[rel]
	return ok && r.Contains(tup)
}

// Rel returns the named relation or nil when absent.
func (s *Store) Rel(name string) *Rel {
	if s.rels == nil {
		return nil
	}
	return s.rels[name]
}

// Relations returns the relation names in lexicographic order.
func (s *Store) Relations() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns the total live tuple count across relations.
func (s *Store) Size() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// Each calls fn for every live tuple of every relation (relations in
// lexicographic order, tuples in insertion order). fn must not mutate
// the tuple. Iteration stops early if fn returns false.
func (s *Store) Each(fn func(rel string, tup []value.Value) bool) {
	for _, name := range s.Relations() {
		r := s.rels[name]
		stop := false
		r.EachLive(func(row int) bool {
			if !fn(name, r.Tuple(row)) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// EachRow is Each over interned rows. The ids slice is reused between
// calls; fn must copy it to retain it.
func (s *Store) EachRow(fn func(rel string, ids []value.ID) bool) {
	var buf []value.ID
	for _, name := range s.Relations() {
		r := s.rels[name]
		stop := false
		r.EachLive(func(row int) bool {
			buf = r.appendRowIDs(buf[:0], row)
			if !fn(name, buf) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Clone returns a deep copy of the relation structure sharing the
// interner. Columns and the validity bitmap are copied (the clone can be
// substituted independently); decoded tuples are shared (they are
// immutable); indexes are rebuilt lazily. The clone is always mutable,
// even when the receiver is frozen — Clone is how a frozen published
// store spawns a rewritable descendant.
func (s *Store) Clone() *Store {
	out := NewStoreWith(s.interner())
	for name, r := range s.rels {
		nr := newRel(name, out.in)
		nr.segs = make([]*segment, len(r.segs))
		for i, sg := range r.segs {
			ns := &segment{arity: sg.arity, cols: make([][]value.ID, sg.arity)}
			for p, col := range sg.cols {
				ns.cols[p] = append([]value.ID(nil), col...)
			}
			ns.rows = append([]int(nil), sg.rows...)
			nr.segs[i] = ns
		}
		nr.loc = append([]rowLoc(nil), r.loc...)
		nr.live = append([]uint64(nil), r.live...)
		nr.dead = r.dead
		nr.tuples = append([][]value.Value(nil), r.tuples...)
		nr.dedup = make(map[uint64]int, len(r.dedup))
		for k, v := range r.dedup {
			nr.dedup[k] = v
		}
		if len(r.over) > 0 {
			nr.over = make(map[uint64][]int, len(r.over))
			for k, v := range r.over {
				nr.over[k] = append([]int(nil), v...)
			}
		}
		out.rels[name] = nr
	}
	return out
}

// Rewrite builds a new store by applying fn to every tuple. fn returns
// the replacement tuple (it may return its argument unchanged). Identical
// results are deduplicated. Used by value-level substitutions that cannot
// be expressed as an ID mapping; prefer SubstituteIDs on the hot path.
func (s *Store) Rewrite(fn func(rel string, tup []value.Value) []value.Value) *Store {
	out := NewStoreWith(s.interner())
	s.Each(func(rel string, tup []value.Value) bool {
		out.Insert(rel, fn(rel, tup))
		return true
	})
	return out
}

// tupleString renders a tuple for display; identity never goes through
// this path.
func tupleString(tup []value.Value) string {
	var b strings.Builder
	for i, v := range tup {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// String renders the store for debugging: one tuple per line, sorted.
func (s *Store) String() string {
	var lines []string
	s.Each(func(rel string, tup []value.Value) bool {
		lines = append(lines, fmt.Sprintf("%s(%s)", rel, tupleString(tup)))
		return true
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
