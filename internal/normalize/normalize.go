// Package normalize implements instance normalization (paper §4.2): the
// preprocessing that fragments the facts of a concrete instance so that
// time intervals behave as constants with respect to a set of temporal
// conjunctions Φ+ — the left-hand sides of the dependencies (or the body
// of a query) about to be evaluated.
//
// Two algorithms are provided:
//
//   - Smart (the paper's Algorithm 1, norm(Ic, Φ+)): only facts that
//     jointly satisfy some conjunction of N(Φ+) with properly overlapping
//     intervals are fragmented, after merging overlapping fact sets.
//     Polynomial in |Ic| for fixed Φ+, minimal output.
//   - Naive: every fact is fragmented on the global endpoint partition of
//     the whole instance, ignoring Φ+. O(n log n) time, possibly larger
//     output (Figure 6 vs Figure 5), but normalized w.r.t. *every* Φ+ and
//     stable under later egd identifications.
//
// HasEmptyIntersectionProperty implements Definition 10 and, via
// Theorem 11, decides whether an instance is normalized.
package normalize

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/storage"
	"repro/internal/value"
)

// ctxErr reports the context's error without blocking: nil while the
// context is live, a wrapped ctx.Err() once it is done.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("normalize: %w", ctx.Err())
	default:
		return nil
	}
}

// Renamed returns N(Φ+): each conjunction with its shared temporal
// variable replaced by one fresh variable per atom (Example 9).
func Renamed(phis []logic.Conjunction) []logic.Conjunction {
	out := make([]logic.Conjunction, len(phis))
	for i, phi := range phis {
		out[i] = phi.RenameTemporal(dependency.TemporalVar)
	}
	return out
}

// factRef identifies a fact inside a concrete instance.
type factRef struct {
	rel string
	row int
}

// setIndex deduplicates Δ sets by content: buckets keyed by a hash of the
// sorted set (no strings are built), collisions resolved by slices.Equal.
type setIndex map[uint64][][]factRef

// lookup returns set's bucket hash and whether an equal set is indexed.
func (ix setIndex) lookup(set []factRef) (uint64, bool) {
	acc := value.NewHash64()
	for _, r := range set {
		acc = acc.String(r.rel).Word(uint64(r.row))
	}
	h := acc.Sum()
	for _, prev := range ix[h] {
		if slices.Equal(prev, set) {
			return h, true
		}
	}
	return h, false
}

// add indexes set unless an equal set is present, reporting whether it
// was new. The set is retained as given.
func (ix setIndex) add(set []factRef) bool {
	h, dup := ix.lookup(set)
	if !dup {
		ix[h] = append(ix[h], set)
	}
	return !dup
}

// matchCollector is the per-match step of Algorithm 1 line 3, shared by
// every enumeration (sequential, sharded, delta) and by the EIP check: it
// turns one homomorphism's row witnesses into its fact set Δ. It works in
// a reused scratch buffer and reads intervals straight off the stored
// interval column, so a match whose set is dropped — empty intersection
// or a duplicate — allocates nothing. One collector serves one
// enumerating goroutine.
type matchCollector struct {
	intervalReader
	set     []factRef // scratch: the current match's fact set
	seen    setIndex  // sets kept so far
	matches int
}

func newMatchCollector(st *storage.Store) *matchCollector {
	return &matchCollector{intervalReader: intervalReader{st: st}, seen: make(setIndex)}
}

// intervalReader reads fact intervals straight off the stored interval
// column (instance.IntervalAt), caching the relations it resolves.
type intervalReader struct {
	st   *storage.Store
	rels []*storage.Rel
}

// interval returns the interval of the fact r.
func (ir *intervalReader) interval(r factRef) interval.Interval {
	for _, rel := range ir.rels {
		if rel.Name() == r.rel {
			return instance.IntervalAt(rel, r.row)
		}
	}
	rel := ir.st.Rel(r.rel)
	ir.rels = append(ir.rels, rel)
	return instance.IntervalAt(rel, r.row)
}

// tick counts one match and, every 64 matches, reports ctx's error.
func (c *matchCollector) tick(ctx context.Context) error {
	c.matches++
	if c.matches&63 == 0 {
		return ctxErr(ctx)
	}
	return nil
}

// rows loads the match's row witnesses into the scratch set, sorted by
// (relation, row) and deduplicated — set semantics for Δ. Matches have a
// handful of atoms, so an insertion sort beats any general sort. The
// result is valid until the next call.
func (c *matchCollector) rows(m *logic.IDMatch) []factRef {
	set := c.set[:0]
	for _, w := range m.Rows {
		r := factRef{w.Rel, w.Row}
		i := len(set)
		for i > 0 && (r.rel < set[i-1].rel || r.rel == set[i-1].rel && r.row < set[i-1].row) {
			i--
		}
		if i > 0 && set[i-1] == r {
			continue
		}
		set = append(set, r)
		copy(set[i+1:], set[i:])
		set[i] = r
	}
	c.set = set
	return set
}

// overlap intersects the intervals of set's facts: ok is false when the
// common intersection is empty (always for the empty set), and allEqual
// reports whether the intervals coincide.
func (c *matchCollector) overlap(set []factRef) (allEqual, ok bool) {
	if len(set) == 0 {
		return false, false
	}
	first := c.interval(set[0])
	acc, allEqual := first, true
	for _, r := range set[1:] {
		iv := c.interval(r)
		if acc, ok = acc.Intersect(iv); !ok {
			return false, false
		}
		allEqual = allEqual && iv == first
	}
	return allEqual, true
}

// keep records set unless an equal set was kept before. A new set is
// copied out of the scratch buffer into an exactly sized slice, which it
// returns.
func (c *matchCollector) keep(set []factRef) ([]factRef, bool) {
	h, dup := c.seen.lookup(set)
	if dup {
		return nil, false
	}
	kept := make([]factRef, len(set))
	copy(kept, set)
	c.seen[h] = append(c.seen[h], kept)
	return kept, true
}

// collect is the whole step for Algorithm 1: the match's fact set when
// its intervals overlap and no equal set was collected before.
func (c *matchCollector) collect(m *logic.IDMatch) ([]factRef, bool) {
	set := c.rows(m)
	if _, ok := c.overlap(set); !ok {
		return nil, false // empty intersection: nothing to fragment
	}
	return c.keep(set)
}

// matchSets enumerates, per Definition 10 / Algorithm 1 line 3, the sets
// Δ = {f1, ..., fm} ⊆ Ic that are the image of some homomorphism from a
// conjunction in N(Φ+) and whose intervals have a non-empty common
// intersection. Duplicate sets are returned once. Only the row witnesses
// of each homomorphism are consumed, so the enumeration runs on the
// interned fast path (ForEachIDs) and never materializes a binding. The
// enumeration — the potentially large part of normalization — checks ctx
// every few dozen matches and aborts with its error once canceled.
func matchSets(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction) ([][]factRef, error) {
	st := ic.Store()
	c := newMatchCollector(st)
	var out [][]factRef
	var stepErr error
	for _, phi := range Renamed(phis) {
		if stepErr = ctxErr(ctx); stepErr != nil {
			return nil, stepErr
		}
		logic.ForEachIDs(st, phi, nil, func(m *logic.IDMatch) bool {
			if stepErr = c.tick(ctx); stepErr != nil {
				return false
			}
			if set, ok := c.collect(m); ok {
				out = append(out, set)
			}
			return true
		})
		if stepErr != nil {
			return nil, stepErr
		}
	}
	return out, nil
}

// parallelCutoffFacts is the instance size below which the egd-phase
// normalization ignores its workers argument and enumerates match sets
// sequentially: freezing the instance and spinning up workers costs more
// than enumerating a few hundred facts outright. It mirrors the chase's
// cutoff of the same name so the two phases flip together.
const parallelCutoffFacts = 128

// matchShard is one worker's share of the sharded match-set enumeration:
// per renamed conjunction, the candidate Δ sets of shard w in enumeration
// order. Sets are deduplicated only within the worker's own stream (that
// drops later duplicates exclusively, so the merged stream still carries
// each distinct set at its earliest position); the merge applies the
// global cross-worker dedup.
type matchShard struct {
	sets [][][]factRef
	err  error
}

// matchSetsParallel is matchSets with the enumeration split into workers
// contiguous shards per renamed conjunction (logic.ForEachIDsPartMulti
// over the frozen instance). Concatenating each conjunction's shards in
// worker-rank order reproduces the sequential enumeration order, so after
// the merge applies the global hash-dedup the returned set list is
// identical to the sequential one. ic must be owned by the caller or
// already frozen: it is frozen here to make concurrent enumeration
// mutation-free.
func matchSetsParallel(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction, workers int) ([][]factRef, error) {
	ic.Freeze()
	renamed := Renamed(phis)
	st := ic.Store()
	shards := make([]matchShard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shards[w] = enumerateMatchShard(ctx, st, renamed, w, workers)
		}(w)
	}
	wg.Wait()
	for w := range shards {
		if err := shards[w].err; err != nil {
			return nil, err
		}
	}

	// Merge in (conjunction, worker-rank) order with the global dedup —
	// exactly the order and the set semantics of the sequential pass.
	seen := make(setIndex)
	var out [][]factRef
	for pi := range renamed {
		for w := range shards {
			for _, set := range shards[w].sets[pi] {
				if seen.add(set) {
					out = append(out, set)
				}
			}
		}
	}
	return out, nil
}

// enumerateMatchShard runs one worker of matchSetsParallel: shard w of
// every renamed conjunction, collected like the sequential matchSets by
// the worker's own collector, whose dedup is worker-local.
func enumerateMatchShard(ctx context.Context, st *storage.Store, renamed []logic.Conjunction, w, workers int) (out matchShard) {
	out.sets = make([][][]factRef, len(renamed))
	c := newMatchCollector(st)
	logic.ForEachIDsPartMulti(st, renamed, w, workers, func(ci int, m *logic.IDMatch) bool {
		if out.err = c.tick(ctx); out.err != nil {
			return false
		}
		if set, ok := c.collect(m); ok {
			out.sets[ci] = append(out.sets[ci], set)
		}
		return true
	})
	return out
}

// unionFind is a plain union-find over dense indices.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

// Smart is the paper's Algorithm 1, norm(Ic, Φ+). It returns a new
// instance in which exactly the facts participating in overlapping match
// sets are fragmented, on the endpoint partition of their merged set Δ.
func Smart(ic *instance.Concrete, phis []logic.Conjunction) *instance.Concrete {
	out, _ := SmartCtx(context.Background(), ic, phis) // Background never cancels
	return out
}

// SmartCtx is Smart under a context: the match-set enumeration — the
// expensive step — aborts promptly with the context's error once ctx is
// done. This is the entry the chase's cancellable loops use.
func SmartCtx(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction) (*instance.Concrete, error) {
	sets, err := matchSets(ctx, ic, phis)
	if err != nil {
		return nil, err
	}
	out, _, err := fragmentSets(ctx, ic, sets)
	return out, err
}

// componentCuts is the merge step of Algorithm 1 over a list of Δ sets:
// sets sharing a fact are merged (lines 4–10) with a union-find over the
// facts occurring in any set — all facts of one Δ join one component, and
// overlapping Δs collapse transitively. It returns, per fact occurring in
// a set, its merged component's endpoint sequence TP_Δ (line 12), and the
// number of components.
func componentCuts(st *storage.Store, sets [][]factRef) (map[factRef][]interval.Time, int) {
	ids := make(map[factRef]int)
	for _, set := range sets {
		for _, r := range set {
			if _, ok := ids[r]; !ok {
				ids[r] = len(ids)
			}
		}
	}
	uf := newUnionFind(len(ids))
	for _, set := range sets {
		for _, r := range set[1:] {
			uf.union(ids[set[0]], ids[r])
		}
	}
	ir := intervalReader{st: st}
	endpoints := make(map[int][]interval.Interval)
	for r, id := range ids {
		root := uf.find(id)
		endpoints[root] = append(endpoints[root], ir.interval(r))
	}
	cuts := make(map[int][]interval.Time, len(endpoints))
	for root, ivs := range endpoints {
		cuts[root] = interval.Endpoints(ivs)
	}
	byFact := make(map[factRef][]interval.Time, len(ids))
	for r, id := range ids {
		byFact[r] = cuts[uf.find(id)]
	}
	return byFact, len(cuts)
}

// splits reports whether some cut falls strictly inside iv, i.e. whether
// fragmenting a fact with interval iv on cuts yields more than one piece.
func splits(iv interval.Interval, cuts []interval.Time) bool {
	for _, t := range cuts {
		if iv.Start < t && t < iv.End {
			return true
		}
	}
	return false
}

// copyRow passes the fact at row of src's relation rel into out
// unchanged, by its interned row, with MustInsert's checks.
func copyRow(out, src *instance.Concrete, rel string, row int) {
	if _, err := out.InsertRowOf(src, rel, row); err != nil {
		panic(err)
	}
}

// fragmentSets is the second half of Algorithm 1: given the Δ sets the
// enumeration produced, merge overlapping sets and fragment the member
// facts on their merged component's endpoint partition. It also reports
// the number of merged components. Shared by the sequential and the
// sharded-parallel enumeration paths, which produce identical set lists.
func fragmentSets(ctx context.Context, ic *instance.Concrete, sets [][]factRef) (*instance.Concrete, int, error) {
	if len(sets) == 0 {
		return ic.Clone(), 0, nil
	}
	cutsOf, components := componentCuts(ic.Store(), sets)

	// Fragment each member fact on its component's cuts (lines 14–17);
	// facts in no component, and members no cut splits, pass through
	// unchanged by row. Iteration goes through the store's live-row API:
	// row numbers are physical (they key the match witnesses), and dead
	// rows are skipped.
	out := instance.NewConcreteWith(ic.Schema(), ic.Interner())
	for _, rel := range ic.Relations() {
		if err := ctxErr(ctx); err != nil {
			return nil, 0, err
		}
		r := ic.Store().Rel(rel)
		r.EachLive(func(row int) bool {
			cuts, inSet := cutsOf[factRef{rel, row}]
			if !inSet || !splits(instance.IntervalAt(r, row), cuts) {
				copyRow(out, ic, rel, row)
				return true
			}
			for _, fr := range ic.FactAt(rel, row).Fragment(cuts) {
				out.MustInsert(fr)
			}
			return true
		})
	}
	return out, components, nil
}

// Naive fragments every fact of the instance on the global endpoint
// partition, ignoring Φ+ entirely (the paper's naïve normalization
// algorithm, §4.2). The output is normalized with respect to every set of
// temporal conjunctions: any two fact intervals are equal or disjoint.
func Naive(ic *instance.Concrete) *instance.Concrete {
	cuts := ic.Endpoints()
	out := instance.NewConcreteWith(ic.Schema(), ic.Interner())
	ic.EachFact(func(f fact.CFact) bool {
		for _, fr := range f.Fragment(cuts) {
			out.MustInsert(fr)
		}
		return true
	})
	return out
}

// ForMapping normalizes an instance for the given strategy. Smart
// requires the conjunction set; Naive ignores it.
func ForMapping(ic *instance.Concrete, phis []logic.Conjunction, strategy Strategy) *instance.Concrete {
	out, _ := ForMappingCtx(context.Background(), ic, phis, strategy)
	return out
}

// ForMappingCtx is ForMapping under a context; once ctx is done the pass
// aborts promptly with its error.
func ForMappingCtx(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction, strategy Strategy) (*instance.Concrete, error) {
	switch strategy {
	case StrategyNaive:
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return Naive(ic), nil
	default:
		return SmartCtx(ctx, ic, phis)
	}
}

// Strategy selects the normalization algorithm.
type Strategy int

const (
	// StrategySmart is the paper's Algorithm 1 (default).
	StrategySmart Strategy = iota
	// StrategyNaive is global endpoint fragmentation.
	StrategyNaive
)

func (s Strategy) String() string {
	if s == StrategyNaive {
		return "naive"
	}
	return "smart"
}

// HasEmptyIntersectionProperty implements Definition 10: for every
// homomorphism from a conjunction of N(Φ+) into the instance, the common
// intersection of the image facts' intervals is either empty or equal to
// their union (i.e. all intervals coincide). By Theorem 11 this holds iff
// the instance is normalized w.r.t. Φ+.
func HasEmptyIntersectionProperty(ic *instance.Concrete, phis []logic.Conjunction) bool {
	ok := true
	st := ic.Store()
	c := newMatchCollector(st)
	for _, phi := range Renamed(phis) {
		logic.ForEachIDs(st, phi, nil, func(m *logic.IDMatch) bool {
			// Repeated rows repeat an interval: the row set decides both.
			if allEqual, nonEmpty := c.overlap(c.rows(m)); nonEmpty && !allEqual {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}

// FragmentBound returns the Theorem 13 worst-case size bound for
// normalizing an n-fact instance: every fact fragmented at every distinct
// endpoint, O(n²) — concretely at most n · (2n − 1) fragments.
func FragmentBound(n int) int {
	if n <= 0 {
		return 0
	}
	return n * (2*n - 1)
}

// Stats summarizes a normalization run for the experiment harness.
type Stats struct {
	InputFacts  int
	OutputFacts int
	Components  int // merged Δ sets that drove fragmentation (Smart only)
}

// SmartWithStats is Smart, additionally reporting size statistics.
func SmartWithStats(ic *instance.Concrete, phis []logic.Conjunction) (*instance.Concrete, Stats) {
	ctx := context.Background() // never canceled: no errors
	sets, _ := matchSets(ctx, ic, phis)
	out, components, _ := fragmentSets(ctx, ic, sets)
	return out, Stats{InputFacts: ic.Len(), OutputFacts: out.Len(), Components: components}
}

// Check verifies that normalized preserves the semantics of original:
// every snapshot of ⟦normalized⟧ equals the corresponding snapshot of
// ⟦original⟧. Sampling is segment-representative, so the check is exact.
func Check(original, normalized *instance.Concrete) bool {
	a, b := original.Abstract(), normalized.Abstract()
	for _, tp := range instance.SamplePoints(a, b) {
		if !a.Snapshot(tp).Equal(b.Snapshot(tp)) {
			return false
		}
	}
	return true
}

// SyncFamilies fragments facts so that every occurrence of each
// interval-annotated null family carries an identical annotation where
// occurrences overlap in time. The chase's egd step replaces an annotated
// null "everywhere"; that is only sound when the value being replaced is
// the same value in every fact it semantically occurs in. Algorithm 1
// fragments only the facts participating in matches, which can leave the
// same family annotated [1,3) in one fact and [2,3) in another — this
// pass propagates the cuts through families until all occurrences align.
// (The naïve normalizer's global partition has this property already.)
func SyncFamilies(c *instance.Concrete) *instance.Concrete {
	out, _ := syncFamiliesCtx(context.Background(), c)
	return out
}

// syncFamiliesCtx is SyncFamilies with a per-pass context check.
func syncFamiliesCtx(ctx context.Context, c *instance.Concrete) (*instance.Concrete, error) {
	cur := c
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		// Collect, per family, the endpoints of all occurrence annotations
		// (equal to the enclosing fact intervals by the fact invariant).
		// Iteration is store order (EachFact): deterministic without the
		// sorted materialization Facts would pay twice per pass.
		cuts := make(map[uint64][]interval.Time)
		cur.EachFact(func(f fact.CFact) bool {
			for _, v := range f.Args {
				if v.Kind() == value.AnnNull {
					cuts[v.ID] = append(cuts[v.ID], f.T.Start, f.T.End)
				}
			}
			return true
		})
		// splitting reports whether some family of f is cut inside f.T.
		splitting := func(f fact.CFact) bool {
			for _, v := range f.Args {
				if v.Kind() == value.AnnNull && splits(f.T, cuts[v.ID]) {
					return true
				}
			}
			return false
		}
		// Most passes change nothing: find a split before copying anything.
		changed := false
		cur.EachFact(func(f fact.CFact) bool {
			changed = splitting(f)
			return !changed
		})
		if !changed {
			return cur, nil
		}
		out := instance.NewConcreteWith(cur.Schema(), cur.Interner())
		var factCuts []interval.Time
		for _, rel := range cur.Relations() {
			cur.Store().Rel(rel).EachLive(func(row int) bool {
				f := cur.FactAt(rel, row)
				if !splitting(f) {
					copyRow(out, cur, rel, row)
					return true
				}
				factCuts = factCuts[:0]
				for _, v := range f.Args {
					if v.Kind() == value.AnnNull {
						factCuts = append(factCuts, cuts[v.ID]...)
					}
				}
				for _, fr := range f.Fragment(factCuts) {
					out.MustInsert(fr)
				}
				return true
			})
		}
		cur = out
	}
}

// ForEgdPhase prepares a target instance for egd matching: normalized
// w.r.t. the egd bodies AND family-synchronized, iterated to a joint
// fixpoint (each pass can enable the other: syncing splits facts, which
// can break the empty intersection property; normalizing splits facts,
// which can desynchronize families). Terminates because cuts only refine
// within the finite global endpoint set.
func ForEgdPhase(c *instance.Concrete, phis []logic.Conjunction, strategy Strategy) *instance.Concrete {
	out, _ := ForEgdPhaseCtx(context.Background(), c, phis, strategy)
	return out
}

// ForEgdPhaseCtx is ForEgdPhase under a context; the joint fixpoint loop
// and the match-set enumerations inside it abort promptly with the
// context's error once ctx is done.
func ForEgdPhaseCtx(ctx context.Context, c *instance.Concrete, phis []logic.Conjunction, strategy Strategy) (*instance.Concrete, error) {
	return ForEgdPhaseWorkers(ctx, c, phis, strategy, 1)
}

// ForEgdPhaseWorkers is ForEgdPhaseCtx with the match-set enumeration —
// the expensive step of each fixpoint iteration — split into workers
// contiguous shards running concurrently. The output is byte-identical
// to the sequential pass at any worker count: shards concatenate in
// worker-rank order to the sequential enumeration order, and the
// hash-dedup is replayed over the concatenation (see matchSetsParallel).
// The family-sync passes and the fragmentation itself stay sequential
// (linear scans; the enumeration dominates).
//
// With workers ≥ 2 the instance enumerated in each iteration is frozen
// in place first, so c must be owned by the caller or already frozen —
// and the returned instance may come back frozen (Clone it for a mutable
// descendant). Iterations over instances below an internal cutoff fall
// back to the sequential enumeration, where fan-out overhead dominates.
func ForEgdPhaseWorkers(ctx context.Context, c *instance.Concrete, phis []logic.Conjunction, strategy Strategy, workers int) (*instance.Concrete, error) {
	if strategy == StrategyNaive {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return Naive(c), nil // globally fragmented: EIP for every Φ and family-consistent
	}
	cur := c
	for {
		var sets [][]factRef
		var err error
		if workers > 1 && cur.Len() >= parallelCutoffFacts {
			sets, err = matchSetsParallel(ctx, cur, phis, workers)
		} else {
			sets, err = matchSets(ctx, cur, phis)
		}
		if err != nil {
			return nil, err
		}
		smart, _, err := fragmentSets(ctx, cur, sets)
		if err != nil {
			return nil, err
		}
		next, err := syncFamiliesCtx(ctx, smart)
		if err != nil {
			return nil, err
		}
		if next.Equal(cur) {
			return cur, nil
		}
		cur = next
	}
}
