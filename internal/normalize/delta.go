package normalize

import (
	"context"
	"sync"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/logic"
)

// Incremental (delta) normalization support for the semi-naive chase.
//
// The incremental chase retains a frozen normalized base instance and
// needs to answer two questions about a combined instance (base rows
// followed by freshly appended delta rows) without renormalizing the
// base part:
//
//  1. Does appending the delta leave the base fragmentation intact? It
//     does exactly when no surviving match set of N(Φ+) mixes base and
//     delta rows: base-only sets are the base run's own sets (same
//     rows, same intervals), and delta-only sets share no member with
//     them, so the merged components — and therefore the cuts applied
//     to every base fact — are unchanged.
//  2. If so, what does the combined normalization look like? The base
//     fragments verbatim (in their retained order) plus the delta rows
//     fragmented on their delta-only components' cuts, appended per
//     relation in ascending row order — exactly the suffix Algorithm 1
//     would emit, since fragmentSets walks rows in physical order and
//     the delta rows sit after every base row.
//
// deltaMatchSets answers both at once; DeltaSourceNormalize packages
// the construction; DeltaAligned is the egd-phase variant of question 1
// (there the incremental chase must additionally know that the
// delta-involving sets would not fragment anything, i.e. every such set
// has all-equal intervals).

// deltaSetsOut accumulates one enumeration's results: the delta-only
// match sets (deduplicated), whether some surviving set also contains a
// base row, and whether every surviving delta-involving set has
// all-equal member intervals.
type deltaSetsOut struct {
	sets        [][]factRef
	touchesBase bool
	aligned     bool
	err         error
}

// deltaMatchSets enumerates the match sets of Renamed(phis) over ic
// that involve at least one delta row and have a non-empty common
// intersection — the only sets Algorithm 1 would act on that the base
// run has not already accounted for. With workers > 1 the enumeration
// shards over the delta frontier (ic must then be frozen or otherwise
// safe for concurrent reads); the result is order-insensitive, so the
// shards merge with a content dedup.
func deltaMatchSets(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction, delta *logic.DeltaSet, workers int) deltaSetsOut {
	renamed := Renamed(phis)
	st := ic.Store()
	if workers < 1 {
		workers = 1
	}
	shards := make([]deltaSetsOut, workers)
	collect := func(w int) {
		out := &shards[w]
		out.aligned = true
		c := newMatchCollector(st)
		for _, phi := range renamed {
			if out.err = ctxErr(ctx); out.err != nil {
				return
			}
			logic.ForEachIDsDeltaPart(st, phi, delta, w, workers, func(stage int, m *logic.IDMatch) bool {
				if out.err = c.tick(ctx); out.err != nil {
					return false
				}
				set := c.rows(m)
				allEqual, ok := c.overlap(set)
				if !ok {
					return true // empty intersection: the base fragmentation ignores it too
				}
				out.aligned = out.aligned && allEqual
				for _, r := range set {
					if !delta.Contains(r.rel, r.row) {
						out.touchesBase = true
						return true
					}
				}
				if kept, isNew := c.keep(set); isNew {
					out.sets = append(out.sets, kept)
				}
				return true
			})
		}
	}
	if workers == 1 {
		collect(0)
		return shards[0]
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			collect(w)
		}(w)
	}
	wg.Wait()
	merged := deltaSetsOut{aligned: true}
	seen := make(setIndex)
	for w := range shards {
		if err := shards[w].err; err != nil {
			return deltaSetsOut{err: err}
		}
		merged.touchesBase = merged.touchesBase || shards[w].touchesBase
		merged.aligned = merged.aligned && shards[w].aligned
		for _, set := range shards[w].sets {
			if seen.add(set) {
				merged.sets = append(merged.sets, set)
			}
		}
	}
	return merged
}

// DeltaAligned reports whether every match set of Renamed(phis) over ic
// that involves at least one delta row either has an empty common
// intersection or consists of facts with identical intervals — i.e.
// renormalizing ic w.r.t. phis would leave the delta frontier (and, if
// the base part was already normalized, the whole instance) untouched.
// The incremental egd phase uses it as its fast-path guard: when it
// holds, the retained base fragmentation and family synchronization
// carry over verbatim. With workers > 1, ic must be frozen.
func DeltaAligned(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction, delta *logic.DeltaSet, workers int) (bool, error) {
	out := deltaMatchSets(ctx, ic, phis, delta, workers)
	if out.err != nil {
		return false, out.err
	}
	return out.aligned, nil
}

// DeltaSourceNormalize extends a retained source normalization with a
// freshly appended delta: combined must be normBase's input instance
// plus delta rows appended after every base row, and normBase the
// Algorithm 1 output (same strategy conjunctions phis) of the base part
// alone. On the fast path (ok=true) it returns a new mutable instance
// equal — byte for byte, including per-relation row order — to
// Algorithm 1 over the whole combined instance, together with the set
// of rows in it that derive from delta rows (the semi-naive frontier
// for the tgd phase). ok=false means some surviving match set mixes
// base and delta rows, so the combined normalization would refragment
// base facts and the caller must renormalize from scratch; norm and
// newRows are nil then. With workers > 1, combined must be frozen.
func DeltaSourceNormalize(ctx context.Context, combined, normBase *instance.Concrete, phis []logic.Conjunction, delta *logic.DeltaSet, workers int) (norm *instance.Concrete, newRows *logic.DeltaSet, ok bool, err error) {
	out := deltaMatchSets(ctx, combined, phis, delta, workers)
	if out.err != nil {
		return nil, nil, false, out.err
	}
	if out.touchesBase {
		return nil, nil, false, nil
	}

	// Merge the delta-only sets into components and collect cuts, exactly
	// as fragmentSets does for the full set list.
	cutsOf, _ := componentCuts(combined.Store(), out.sets)

	// Append the delta fragments to a clone of the retained base
	// normalization, per relation in ascending row order — the order
	// fragmentSets would visit them in, since delta rows follow every
	// base row. Fragments that collide with an existing row dedup away
	// exactly as MustInsert would, and stay out of the frontier.
	res := normBase.Clone()
	frontier := logic.NewDeltaSet()
	for _, rel := range delta.Relations() {
		if err := ctxErr(ctx); err != nil {
			return nil, nil, false, err
		}
		r := combined.Store().Rel(rel)
		for _, row := range delta.Rows(rel) {
			if r == nil || row >= r.NumRows() || !r.Alive(row) {
				continue
			}
			f := combined.FactAt(rel, row)
			frags := []fact.CFact{f}
			if cuts, inSet := cutsOf[factRef{rel, row}]; inSet {
				frags = f.Fragment(cuts)
			}
			for _, fr := range frags {
				added, err := res.Insert(fr)
				if err != nil {
					return nil, nil, false, err
				}
				if added {
					frontier.Add(fr.Rel, res.Store().Rel(fr.Rel).NumRows()-1)
				}
			}
		}
	}
	return res, frontier, true, nil
}
