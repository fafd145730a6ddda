// Package storage implements the in-memory relational storage engine the
// rest of the system is built on. Relations are stored column-wise: a
// relation has one arity, fixed by its first row, and keeps one dense
// []value.ID column per attribute position, indexed by row number, so the
// homomorphism engine verifies a candidate row by indexing straight into
// the columns it cares about instead of chasing per-tuple pointers. A row
// of another arity is an internal invariant violation and panics:
// instance.Concrete.CheckRel rejects such a fact before it reaches a
// store. Secondary indexes are sorted posting lists (position, value-ID)
// → ascending row numbers, which support both index-nested-loop probes
// and sorted-list intersection for conjunctive candidate sets.
//
// Representation. Every value entering a store is interned into a dense
// value.ID by the store's value.Interner. A row appends one entry to each
// of its relation's columns, so its row number is its offset in every
// column. The ID columns are the only form of a row the store keeps: the
// caller-facing []value.Value form is decoded from them through the
// interner on every read (Tuple, ValueAt, AppendTuple, Each) and never
// cached, so a row costs its IDs and nothing more. Row numbers are
// stable; a row-validity bitmap marks rows that were collapsed into
// duplicates by an in-place substitution (SubstituteIDs, the egd-rewrite
// fast path) — dead rows keep their number but are skipped by Len,
// iteration, dedup, and the posting lists. Duplicate elimination hashes
// the ID row (value.HashIDs) into buckets and compares against the
// columns on collision; no strings are built on the insert/lookup path.
//
// SubstituteIDs rewrites only the rows that contain a substituted ID,
// found through the posting lists of every position, which hold exactly
// the live rows containing each ID; unaffected rows — the vast majority
// in a typical egd round — are not touched, hashed, or copied. Stores
// sharing one Interner (see NewStoreWith) agree on IDs, which lets the
// chase rewrite and copy rows between instances without re-rendering
// values. So do stores whose interners extend one another: a mutable
// store handed a frozen interner interns into an overlay on it
// (value.NewOverlay), so every chase run interns into one overlay on its
// source's frozen interner, reads the source's rows by ID as they are,
// and never writes an interner another run can see. A frozen interner is
// read without a lock.
//
// Plans compiled by the homomorphism engine snapshot column slice
// headers, so relations must not be mutated while a plan over them runs.
// Every mutation bumps the relation's epoch counter (Epoch), which
// compiled plans revalidate after each match callback — a violation
// panics loudly instead of silently reading stale columns.
//
// Concurrency contract: a store is mutable-until-frozen. While mutable it
// is single-goroutine (inserts, substitutions, and the lazy indexes and
// scratch buffers behind Contains/CandidatesID all write unsynchronized
// state). Freeze eagerly builds the one lazy structure reads consult —
// the posting-list index on every position — and then flips the store
// into an immutable published state: every read path is mutation-free
// afterwards, so any number of goroutines may probe one frozen store
// concurrently (the homomorphism engine additionally skips epoch
// revalidation over frozen relations, letting one compiled plan shape
// execute from many goroutines). Decoding a row reads the interner,
// which is safe for concurrent readers and lock-free once it is frozen
// too. Writing to a frozen store panics loudly, mirroring the
// epoch-revalidation contract; Clone returns a mutable copy when a
// derived store must be rewritten.
//
// The store is deliberately representation-agnostic: a tuple is a slice
// of values, and both views use it — the concrete view stores a fact
// R+(a, [s,e)) as the tuple ⟨a..., [s,e)⟩ whose last component is an
// interval value, while abstract snapshots store plain ⟨a...⟩ tuples.
// Rows are immutable once inserted; only SubstituteIDs rewrites stored
// rows, and it preserves set semantics.
package storage

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/value"
)

// Rel is a single relation: an append-only set of deduplicated tuples of
// one arity in ID columns, with optional per-position posting-list
// indexes.
type Rel struct {
	name  string
	in    *value.Interner
	arity int          // fixed by the first row
	rows  int          // row-number space, dead rows included
	cols  [][]value.ID // cols[p][row]: position p of every row
	live  []uint64     // validity bitmap over rows
	dead  int          // rows invalidated by SubstituteIDs
	epoch uint64       // bumped by every mutation (insert, substitute)

	dedup map[uint64]int   // row hash → a live row with that hash
	over  map[uint64][]int // further live rows per hash (collisions only)

	idx map[int]map[value.ID][]int // pos → ID → sorted live rows

	scratch []value.ID // reusable insert/lookup buffer

	frozen bool // immutable and shareable; see Freeze
}

func newRel(name string, in *value.Interner) *Rel {
	return &Rel{name: name, in: in, dedup: make(map[uint64]int)}
}

// Name returns the relation name.
func (r *Rel) Name() string { return r.name }

// Len returns the number of (distinct, live) tuples.
func (r *Rel) Len() int { return r.rows - r.dead }

// NumRows returns the physical row-number space: valid row arguments are
// [0, NumRows), of which Len are alive. The two differ only after an
// in-place substitution collapsed rows.
func (r *Rel) NumRows() int { return r.rows }

// Arity returns the relation's arity: that of its first row, and 0 while
// it has none.
func (r *Rel) Arity() int { return r.arity }

// Cols returns the relation's columns, one per position: Cols()[p][row]
// is position p of the row, dead rows included. Do not mutate.
func (r *Rel) Cols() [][]value.ID { return r.cols }

// Epoch returns the relation's mutation epoch: a counter bumped by every
// insert and every in-place substitution. Compiled homomorphism plans
// snapshot column slice headers, so a relation must not be mutated while
// a plan over it runs; the engine records each relation's epoch at plan
// compile time and revalidates it after every match callback, turning a
// silent read of stale column headers into a loud panic. Building the
// lazy posting lists does not change what a plan would read, so it does
// not bump the epoch.
func (r *Rel) Epoch() uint64 { return r.epoch }

// Freeze eagerly builds the posting-list index on every position below
// the arity, one per column (a row's number is its offset in each), the
// one lazy structure a read path can consult, and then flips the
// relation into an immutable state: all read paths (Tuple, Contains,
// column access, posting lookups) are mutation-free afterwards and safe
// for any number of concurrent readers. Rows are not decoded: a read
// decodes the row it needs from the columns. Writes to a frozen relation
// panic loudly. Freeze is idempotent; it must be called from the single
// goroutine that owns the still-mutable relation.
func (r *Rel) Freeze() {
	if r.frozen {
		return
	}
	for pos := 0; pos < r.arity; pos++ {
		r.EnsureIndex(pos)
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

// appendRowIDs appends row's IDs to dst, which may be nil.
func (r *Rel) appendRowIDs(dst []value.ID, row int) []value.ID {
	for _, col := range r.cols {
		dst = append(dst, col[row])
	}
	return dst
}

// Row returns the interned form of row i as a fresh slice.
func (r *Rel) Row(i int) []value.ID {
	return r.appendRowIDs(make([]value.ID, 0, r.arity), i)
}

// Tuple returns row i as values in a fresh slice, decoded from its
// columns; the caller owns it. It writes nothing, so a frozen relation
// serves concurrent Tuple calls. Readers of many rows decode into a
// buffer of their own with AppendTuple instead.
func (r *Rel) Tuple(i int) []value.Value {
	return r.AppendTuple(make([]value.Value, 0, r.arity), i)
}

// AppendTuple appends row i's values, decoded from its columns, to dst
// and returns the extended slice. It allocates only when dst must grow.
func (r *Rel) AppendTuple(dst []value.Value, i int) []value.Value {
	var ids [8]value.ID
	return r.in.ResolveAll(dst, r.appendRowIDs(ids[:0], i))
}

// IDAt returns the interned ID at position pos of row i.
func (r *Rel) IDAt(i, pos int) value.ID { return r.cols[pos][i] }

// ValueAt returns position pos of row i, resolved from its column
// without decoding the rest of the row. It allocates nothing.
func (r *Rel) ValueAt(i, pos int) value.Value { return r.in.Resolve(r.IDAt(i, pos)) }

// hashRow hashes a stored row the same way value.HashIDs hashes its
// slice form.
func (r *Rel) hashRow(row int) uint64 {
	h := value.NewHash64()
	for _, col := range r.cols {
		h = h.Word(uint64(col[row]))
	}
	return h.Sum()
}

// rowEqual reports whether stored row equals the ID slice.
func (r *Rel) rowEqual(row int, ids []value.ID) bool {
	if r.arity != len(ids) {
		return false
	}
	for p, id := range ids {
		if r.cols[p][row] != id {
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
// the slice. The relation's first row fixes its arity; a row of another
// arity panics.
func (r *Rel) insertIDs(ids []value.ID) bool {
	if r.frozen {
		r.frozenPanic()
	}
	if r.rows == 0 {
		r.arity, r.cols = len(ids), make([][]value.ID, len(ids))
	} else if len(ids) != r.arity {
		panic(fmt.Sprintf("storage: row of arity %d inserted into relation %q of arity %d", len(ids), r.name, r.arity))
	}
	h := value.HashIDs(ids)
	if r.lookupHash(h, ids) >= 0 {
		return false
	}
	r.epoch++
	row := r.rows
	for p, id := range ids {
		r.cols[p] = append(r.cols[p], id)
	}
	r.rows++
	if row>>6 >= len(r.live) {
		r.live = append(r.live, 0)
	}
	r.live[row>>6] |= 1 << (uint(row) & 63)
	r.attachDedup(h, row)
	for pos, byID := range r.idx {
		byID[ids[pos]] = append(byID[ids[pos]], row)
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
	return r.insertIDs(r.scratch)
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
	for row := 0; row < r.rows; row++ {
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
	n := r.rows
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
// present. Lists hold live rows in ascending order. A position at or past
// the arity holds no rows, so it gets no index (its posting lists are
// empty). On a frozen relation every position below the arity is already
// indexed, so the call is a pure read.
func (r *Rel) EnsureIndex(pos int) {
	if _, ok := r.idx[pos]; ok || r.frozen || pos >= r.arity {
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
	col := r.cols[pos]
	counts := make([]int32, r.in.Len())
	total, distinct := 0, 0
	for row, id := range col {
		if r.Alive(row) {
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
	for row, id := range col {
		if r.Alive(row) {
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

// HasIndex reports whether an index exists on pos (for tests and
// diagnostics).
func (r *Rel) HasIndex(pos int) bool {
	_, ok := r.idx[pos]
	return ok
}

// Interner returns the interner whose IDs this relation's rows use.
func (r *Rel) Interner() *value.Interner { return r.in }

// substitute rewrites, in place, every live row containing one of the
// subs IDs that canon moves, mapping each of the row's IDs through canon.
// Rows that collapse into an existing row are invalidated. Returns the
// number of rows rewritten. When touched is non-nil it is called once per
// rewritten row, in ascending row order, before the rewrite batch is
// applied — the hook the incremental delta chase uses to track which
// rows one egd round dirtied.
func (r *Rel) substitute(subs []value.ID, canon func(value.ID) value.ID, touched func(row int)) int {
	if r.frozen {
		r.frozenPanic()
	}
	// The posting lists hold exactly the live rows containing each ID, so
	// their union over every position is the set of rows to rewrite.
	var cand []int
	for p := 0; p < r.arity; p++ {
		r.EnsureIndex(p)
		for _, id := range subs {
			if canon(id) != id {
				cand = append(cand, r.idx[p][id]...)
			}
		}
	}
	if len(cand) == 0 {
		return 0
	}
	sort.Ints(cand)
	changed := slices.Compact(cand)
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
		for p, col := range r.cols {
			id := col[row]
			nid := canon(id)
			if nid == id {
				continue
			}
			removePosting(r.idx[p], id, row)
			col[row] = nid
		}
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
				removePosting(r.idx[p], id, row)
			}
			continue
		}
		r.attachDedup(h, row)
		for p, id := range ids {
			insertPosting(r.idx[p], id, row)
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
// their rows are ID-compatible. A mutable store never writes a frozen
// interner: handed one, it interns into an overlay on it
// (value.NewOverlay), whose IDs extend the frozen interner's.
type Store struct {
	in     *value.Interner
	rels   map[string]*Rel
	frozen bool  // immutable and shareable; see Freeze
	pins   []any // lifetime anchors (mmap'd snapshot files); see Pin
}

// NewStore returns an empty store with a fresh interner.
func NewStore() *Store { return NewStoreWith(nil) }

// NewStoreWith returns an empty store using the given interner (a fresh
// one when nil), or a new overlay on it when it is frozen.
func NewStoreWith(in *value.Interner) *Store {
	if in == nil {
		in = value.NewInterner()
	}
	return &Store{in: in.Writable(), rels: make(map[string]*Rel)}
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

// Freeze eagerly builds the posting lists of every relation, the one lazy
// structure reads consult, and flips the store into an immutable
// published state: all read paths are mutation-free afterwards, so any
// number of goroutines may share the frozen store. No row is decoded.
// Writes (Insert, InsertIDs, SubstituteIDs) panic loudly. The interner
// is left as it is: a frozen store may share a still-mutable interner
// with the stores of a run in progress (a chase's pre-egd target and
// normalized source do), and interning new values there does not touch
// frozen relation state. Whoever publishes the interner freezes it
// (value.Interner.Freeze). Freeze is idempotent and must be called from
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
	if in := s.interner(); in.Frozen() {
		// The interner this store shared was frozen by another owner
		// (a mutable clone's original was published): carry on in an
		// overlay, whose IDs extend the rows already stored.
		s.in = value.NewOverlay(in)
		for _, r := range s.rels {
			r.in = s.in
		}
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
	return s.rel(rel).insertIDs(ids)
}

// InsertRowOf copies row i of src — a relation of a store whose
// interner this store's extends (value.Interner.Extends) — into the
// same-named relation of this store, as InsertIDs would. This is the
// copy fast path for derived instances that pass most rows through
// unchanged: no value is decoded, rendered or re-interned.
func (s *Store) InsertRowOf(src *Rel, i int) bool {
	if s.frozen {
		s.frozenPanic("InsertRowOf")
	}
	if in := s.interner(); src.in != in && !in.Extends(src.in) {
		panic("storage: InsertRowOf from a store whose interner this store's does not extend")
	}
	r := s.rel(src.name)
	r.scratch = src.appendRowIDs(r.scratch[:0], i)
	return r.insertIDs(r.scratch)
}

// SubstituteIDs rewrites, in place, every live row of every relation
// that contains one of the subs IDs, mapping the row's IDs through
// canon; rows that collapse into an existing row are invalidated (their
// row numbers stay allocated but dead). subs names the IDs canon moves;
// one it maps to itself selects no row. Only affected rows — found in
// the posting lists of every position, built on the first substitution
// and kept up by later writes — are touched. Returns the number of rows
// rewritten. This is the incremental egd-rewrite primitive: once the
// lists are built, one round's substitution costs O(affected), not
// O(store).
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

// eachChunk is the number of values Each decodes into one backing array.
const eachChunk = 1024

// Each calls fn for every live tuple of every relation (relations in
// lexicographic order, tuples in insertion order), decoded from the
// columns. Iteration stops early if fn returns false. Tuples are cut
// from shared chunks of about eachChunk values, each capped at its own
// length and never written again, so fn may keep them but must not
// mutate them; no tuple costs an allocation of its own.
func (s *Store) Each(fn func(rel string, tup []value.Value) bool) {
	left := 0 // values still to decode at most: bounds the chunk size
	for _, r := range s.rels {
		left += r.arity * r.rows
	}
	var chunk []value.Value
	s.EachLive(func(r *Rel, row int) bool {
		k := r.arity
		if cap(chunk)-len(chunk) < k {
			chunk = make([]value.Value, 0, max(k, min(eachChunk, left)))
		}
		n := len(chunk)
		chunk = r.AppendTuple(chunk, row)
		left -= k
		return fn(r.name, chunk[n:len(chunk):len(chunk)])
	})
}

// EachRow is Each over interned rows. The ids slice is reused between
// calls; fn must copy it to retain it.
func (s *Store) EachRow(fn func(rel string, ids []value.ID) bool) {
	var buf []value.ID
	s.EachLive(func(r *Rel, row int) bool {
		buf = r.appendRowIDs(buf[:0], row)
		return fn(r.name, buf)
	})
}

// EachLive calls fn with every live row of every relation, in Each's
// order, stopping early if fn returns false. Readers that need a few
// positions of each row read them by ID (Rel.IDAt) instead of decoding
// it.
func (s *Store) EachLive(fn func(r *Rel, row int) bool) {
	for _, name := range s.Relations() {
		r := s.rels[name]
		for row := 0; row < r.rows; row++ {
			if r.Alive(row) && !fn(r, row) {
				return
			}
		}
	}
}

// Clone returns a deep copy of the relation structure sharing the
// interner, or interning into an overlay on it when it is frozen.
// Columns, the validity bitmap and the dedup buckets are copied (the
// clone can be substituted independently); indexes are rebuilt lazily.
// The clone is always mutable, even when the receiver is frozen — Clone
// is how a frozen published store spawns a rewritable descendant.
func (s *Store) Clone() *Store { return s.CloneWith(s.interner()) }

// CloneWith is Clone into the interner in (an overlay on it when it is
// frozen), which must extend the receiver's: the rows are copied by ID.
// A delta chase clones its base run's stores onto one overlay this way.
func (s *Store) CloneWith(in *value.Interner) *Store {
	out := NewStoreWith(in)
	if !out.in.Extends(s.interner()) {
		panic("storage: CloneWith into an interner that does not extend the store's")
	}
	for name, r := range s.rels {
		nr := newRel(name, out.in)
		nr.arity, nr.rows = r.arity, r.rows
		if r.cols != nil {
			nr.cols = make([][]value.ID, len(r.cols))
			for p, col := range r.cols {
				nr.cols[p] = append([]value.ID(nil), col...)
			}
		}
		nr.live = append([]uint64(nil), r.live...)
		nr.dead = r.dead
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
