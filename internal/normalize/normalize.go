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
//
// A Δ of one fact adds no union and no endpoint its fact does not
// already carry, so the enumerations skip one-atom conjunctions and
// matches whose witnesses collapse to one fact. A Smart pass that splits
// no fact copies nothing: it returns its input when the input is frozen,
// and a Clone otherwise, so a caller never aliases a mutable instance.
package normalize

import (
	"context"
	"fmt"
	"slices"

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

// joins returns the conjunctions of N(Φ+) the enumerations visit: each
// conjunction of two or more atoms with its shared temporal variable
// replaced by one fresh variable per atom (Example 9). Every Δ of a
// one-atom conjunction is one fact, which adds no union and no endpoint
// its fact does not already carry, so those are left out.
func joins(phis []logic.Conjunction) []logic.Conjunction {
	var out []logic.Conjunction
	for _, phi := range phis {
		if len(phi) >= 2 {
			out = append(out, phi.RenameTemporal(dependency.TemporalVar))
		}
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

// matchCollector is the per-match step of Algorithm 1 line 3, shared by
// every enumeration (full and delta) and by the EIP check: it turns one
// homomorphism's row witnesses into its fact set Δ. The enumerations run
// on logic's overlap entries, which never complete a match whose
// intervals have an empty common intersection, so every match the
// collector sees intersects. It works in a reused scratch buffer, so a
// match whose set is dropped as a duplicate allocates nothing.
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

// tick counts one step of an enumeration — a match, or a row the join
// rejected for its interval — and, every 64 steps, reports ctx's error.
// Counting the rejected rows keeps a pass that completes no match
// cancellable.
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

// allEqual reports whether the facts of a non-empty set carry one
// interval.
func (c *matchCollector) allEqual(set []factRef) bool {
	first := c.interval(set[0])
	for _, r := range set[1:] {
		if c.interval(r) != first {
			return false
		}
	}
	return true
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

// collect is the whole step for Algorithm 1 on a match whose intervals
// intersect: its fact set when it holds two or more facts and no equal
// set was collected before.
func (c *matchCollector) collect(m *logic.IDMatch) ([]factRef, bool) {
	set := c.rows(m)
	if len(set) < 2 {
		return nil, false // one fact: no union, no new endpoint
	}
	return c.keep(set)
}

// matchSets enumerates, per Definition 10 / Algorithm 1 line 3, the sets
// Δ = {f1, ..., fm} ⊆ Ic of two or more facts that are the image of some
// homomorphism from a conjunction in N(Φ+) and whose intervals have a
// non-empty common intersection. Duplicate sets are returned once, and
// one-atom conjunctions are not enumerated (see joins). Only the row
// witnesses of each homomorphism are consumed, so the enumeration never
// materializes a binding. It runs on logic.ForEachIDsOverlapping, which
// rejects a candidate row whose interval misses the intersection of the
// rows bound before it: the matches with an empty intersection, most of
// an egd round's on the taxi workload, are never completed. The
// enumeration, the potentially large part of normalization, polls ctx
// every 64 matches and rejected rows, and aborts with its error once
// canceled.
func matchSets(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction) ([][]factRef, error) {
	st := ic.Store()
	c := newMatchCollector(st)
	var out [][]factRef
	var stepErr error
	tick := func() bool {
		stepErr = c.tick(ctx)
		return stepErr == nil
	}
	for _, phi := range joins(phis) {
		if stepErr = ctxErr(ctx); stepErr != nil {
			return nil, stepErr
		}
		logic.ForEachIDsOverlapping(st, phi, func(m *logic.IDMatch) bool {
			if !tick() {
				return false
			}
			if set, ok := c.collect(m); ok {
				out = append(out, set)
			}
			return true
		}, tick)
		if stepErr != nil {
			return nil, stepErr
		}
	}
	return out, nil
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

// Smart is the paper's Algorithm 1, norm(Ic, Φ+): an instance in which
// exactly the facts participating in overlapping match sets are
// fragmented, on the endpoint partition of their merged set Δ. When no
// fact splits, a frozen ic is returned itself and an unfrozen one as a
// Clone; otherwise the result is a new instance.
func Smart(ic *instance.Concrete, phis []logic.Conjunction) *instance.Concrete {
	out, _ := SmartCtx(context.Background(), ic, phis) // Background never cancels
	return out
}

// SmartCtx is Smart under a context: the match-set enumeration — the
// expensive step — aborts promptly with the context's error once ctx is
// done. This is the entry the chase's cancellable loops use. Like Smart,
// it returns a frozen ic itself when no fact splits.
func SmartCtx(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction) (*instance.Concrete, error) {
	out, _, err := smart(ctx, ic, phis)
	return out, err
}

// smart runs Algorithm 1 and reports the number of merged components. A
// pass that splits nothing hands back ic, cloned unless it is frozen.
func smart(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction) (*instance.Concrete, int, error) {
	sets, err := matchSets(ctx, ic, phis)
	if err != nil {
		return nil, 0, err
	}
	out, components, err := fragmentSets(ctx, ic, sets)
	if err != nil {
		return nil, 0, err
	}
	if out == ic && !ic.Frozen() {
		out = ic.Clone()
	}
	return out, components, nil
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
// the number of merged components. When no cut falls strictly inside a
// member fact, the partition is ic's own and ic itself is returned.
func fragmentSets(ctx context.Context, ic *instance.Concrete, sets [][]factRef) (*instance.Concrete, int, error) {
	if len(sets) == 0 {
		return ic, 0, nil
	}
	cutsOf, components := componentCuts(ic.Store(), sets)
	ir := intervalReader{st: ic.Store()}
	split := false
	for r, cuts := range cutsOf {
		if split = splits(ir.interval(r), cuts); split {
			break
		}
	}
	if !split {
		return ic, components, nil
	}

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
// aborts promptly with its error. Under Smart a pass that splits no fact
// returns a frozen ic itself and an unfrozen one as a Clone; Naive always
// builds a new instance.
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
// the instance is normalized w.r.t. Φ+. The homomorphisms with an empty
// intersection satisfy it whatever they are, so the check enumerates
// only the others (logic.ForEachIDsOverlapping), and asks of each that
// its intervals coincide.
func HasEmptyIntersectionProperty(ic *instance.Concrete, phis []logic.Conjunction) bool {
	ok := true
	st := ic.Store()
	c := newMatchCollector(st)
	for _, phi := range joins(phis) {
		logic.ForEachIDsOverlapping(st, phi, func(m *logic.IDMatch) bool {
			// Repeated rows repeat an interval: the row set decides, and
			// a set of one fact is all-equal.
			if set := c.rows(m); len(set) >= 2 && !c.allEqual(set) {
				ok = false
			}
			return ok
		}, nil)
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
	// Components counts the merged Δ sets of two or more facts (Smart
	// only); Example 14 has 2.
	Components int
}

// SmartWithStats is Smart, additionally reporting size statistics. Like
// Smart, it returns a frozen ic itself and clones an unfrozen one when no
// fact splits.
func SmartWithStats(ic *instance.Concrete, phis []logic.Conjunction) (*instance.Concrete, Stats) {
	out, components, _ := smart(context.Background(), ic, phis) // Background never cancels
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
	var fams []uint64
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		// Collect, per family, the endpoints of all occurrence annotations
		// (equal to the enclosing fact intervals by the fact invariant).
		// Both scans walk the live rows in store order and read them by
		// ID: only annotated nulls and the intervals of their facts are
		// resolved, and no fact is decoded.
		st := cur.Store()
		cuts := make(map[uint64][]interval.Time)
		st.EachLive(func(r *storage.Rel, row int) bool {
			if fams = annFamilies(fams[:0], r, row); len(fams) > 0 {
				iv := instance.IntervalAt(r, row)
				for _, fam := range fams {
					cuts[fam] = append(cuts[fam], iv.Start, iv.End)
				}
			}
			return true
		})
		// splitting reports whether some family of the fact at row of r is
		// cut inside its interval, leaving the fact's families in fams.
		splitting := func(r *storage.Rel, row int) bool {
			fams = annFamilies(fams[:0], r, row)
			for _, fam := range fams {
				if splits(instance.IntervalAt(r, row), cuts[fam]) {
					return true
				}
			}
			return false
		}
		// Most passes change nothing: find a split before copying anything.
		changed := false
		st.EachLive(func(r *storage.Rel, row int) bool {
			changed = splitting(r, row)
			return !changed
		})
		if !changed {
			return cur, nil
		}
		out := instance.NewConcreteWith(cur.Schema(), cur.Interner())
		var factCuts []interval.Time
		st.EachLive(func(r *storage.Rel, row int) bool {
			if !splitting(r, row) {
				copyRow(out, cur, r.Name(), row)
				return true
			}
			factCuts = factCuts[:0]
			for _, fam := range fams {
				factCuts = append(factCuts, cuts[fam]...)
			}
			for _, fr := range cur.FactAt(r.Name(), row).Fragment(factCuts) {
				out.MustInsert(fr)
			}
			return true
		})
		cur = out
	}
}

// annFamilies appends to dst the family of each annotated null among the
// data arguments of row of r, in argument order. It reads the row's IDs
// and resolves only the annotated nulls.
func annFamilies(dst []uint64, r *storage.Rel, row int) []uint64 {
	in := r.Interner()
	for p, n := 0, r.Arity()-1; p < n; p++ {
		if id := r.IDAt(row, p); in.KindOf(id) == value.AnnNull {
			dst = append(dst, in.Resolve(id).ID)
		}
	}
	return dst
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
// context's error once ctx is done. Under Smart the fixpoint ends as
// soon as a pass splits nothing, and the last pass's input comes back:
// c itself, frozen or not, when c is already normalized and
// family-synchronized. Only a pass that built a new instance is compared
// with its input fact by fact.
func ForEgdPhaseCtx(ctx context.Context, c *instance.Concrete, phis []logic.Conjunction, strategy Strategy) (*instance.Concrete, error) {
	if strategy == StrategyNaive {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return Naive(c), nil // globally fragmented: EIP for every Φ and family-consistent
	}
	cur := c
	for {
		sets, err := matchSets(ctx, cur, phis)
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
		if next == cur || next.Equal(cur) {
			return cur, nil
		}
		cur = next
	}
}
