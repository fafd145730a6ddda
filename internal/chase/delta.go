package chase

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/normalize"
	"repro/internal/value"
)

// The semi-naive incremental (delta) c-chase.
//
// A full chase run retains its intermediates in a BaseState: the frozen
// raw source, the frozen normalized source, the frozen pre-egd target,
// the frozen solution, the null-family position, and the per-tgd firing
// counts. ConcreteDelta then chases "base source + a few new facts"
// without redoing the base work:
//
//   - the new facts normalize incrementally (normalize.DeltaSourceNormalize),
//     reusing the retained base fragmentation verbatim;
//   - tgds fire only on homomorphisms with at least one body atom bound
//     in the delta (logic.ForEachIDsDelta), against a clone of the
//     retained pre-egd target, with fresh nulls numbered as the
//     continuation of the base run (value.NullGenAt);
//   - egd rounds scan only homomorphisms touching dirty rows, rewriting
//     in place; merges that reach into retained base rows are allowed up
//     to deltaBaseRowLimit rewritten base rows.
//
// The contract is byte-identity: the returned solution equals — fact
// for fact, null family for null family — the solution of a full chase
// over the base source followed by the delta facts. The fast path only
// runs when that equality is provable from the retained state; a
// pre-flight guard or an in-flight hazard (listed at deltaSafe and in
// the phase loops below) falls back to exactly that full re-chase,
// reported in Stats.FallbackFullChase. Either way the result is correct
// and a fresh BaseState is returned, so delta runs chain.
type BaseState struct {
	cm      *Compiled
	src     *instance.Concrete // frozen raw source of the run
	nsrc    *instance.Concrete // frozen normalized source; src itself when normalization split no fact
	preEgd  *instance.Concrete // frozen post-tgd/pre-egd target; nil when the mapping has no egds
	sol     *instance.Concrete // frozen solution
	genLast uint64             // null-family position after the run
	fires   []int              // per-tgd firing counts of the run
	norm    normalize.Strategy
	egdMode EgdStrategy
}

// deltaBaseRowLimit bounds how many retained base-solution rows one
// delta run may rewrite through egd merges: past it the incremental run
// is likely no cheaper than a re-chase, so it falls back.
const deltaBaseRowLimit = 256

// Solution returns the retained frozen solution. Shared; do not mutate.
func (b *BaseState) Solution() *instance.Concrete { return b.sol }

// Source returns the retained frozen raw source. Shared; do not mutate.
func (b *BaseState) Source() *instance.Concrete { return b.src }

// Compiled returns the mapping the state was chased under.
func (b *BaseState) Compiled() *Compiled { return b.cm }

// deltaSafe reports whether the incremental fast path is even
// attemptable: both runs on Smart normalization and batch egds, and no
// trace hook (the delta run cannot replay the full run's event stream).
// Anything else re-chases from scratch — still correct, just not
// incremental.
func deltaSafe(base *BaseState, opts *Options) bool {
	return base.norm == normalize.StrategySmart && opts.norm() == normalize.StrategySmart &&
		base.egdMode == EgdBatch && opts.egd() == EgdBatch &&
		!opts.tracing()
}

// ConcreteDelta chases the base run's source extended by the facts of
// delta, reusing the retained BaseState where provably byte-identical
// and re-chasing the combined source from scratch otherwise
// (Stats.FallbackFullChase). The returned solution equals — including
// null family ids — ConcreteCompiled over a source built by inserting
// the base facts and then the delta facts, and the returned BaseState
// retains the combined run so further deltas chain. base and delta are
// never mutated; delta facts already present in the base source are
// ignored (Stats.DeltaFacts counts the genuinely new ones).
func ConcreteDelta(base *BaseState, delta *instance.Concrete, opts *Options) (*instance.Concrete, Stats, *BaseState, error) {
	var stats Stats
	cm := base.cm
	ctx := opts.ctx()
	if err := ctxErr(ctx); err != nil {
		return nil, stats, nil, err
	}

	// One interner per delta run: the combined source, the delta
	// normalization and the clones of the retained target and solution
	// all intern into in, an overlay on the base run's interner (that
	// interner itself while it is mutable), so the base run's IDs carry
	// over and the tgd kernel translates nothing. Extend a clone of the
	// retained source; the raw delta frontier is the set of appended rows.
	in := base.sol.Interner().Writable()
	combined := base.src.CloneWith(in)
	rawDelta := logic.NewDeltaSet()
	var insErr error
	delta.EachFact(func(f fact.CFact) bool {
		added, err := combined.Insert(f)
		if err != nil {
			insErr = fmt.Errorf("chase: delta fact %v: %w", f, err)
			return false
		}
		if added {
			rawDelta.Add(f.Rel, combined.Store().Rel(f.Rel).NumRows()-1)
			stats.DeltaFacts++
		}
		return true
	})
	if insErr != nil {
		return nil, stats, nil, insErr
	}
	if stats.DeltaFacts == 0 {
		// Nothing new: the retained solution is the answer.
		return base.sol, stats, base, nil
	}
	combined.Freeze()

	if !deltaSafe(base, opts) {
		return deltaFallback(combined, cm, opts, stats)
	}

	// Incremental source normalization: the retained base fragmentation
	// plus the delta rows fragmented on their own match components. A
	// surviving match set mixing base and delta rows would refragment
	// base facts — fall back.
	nsrc, frontier, ok, err := normalize.DeltaSourceNormalize(ctx, combined, base.nsrc, cm.tgdBodies, rawDelta)
	if err != nil {
		return nil, stats, nil, err
	}
	if !ok {
		return deltaFallback(combined, cm, opts, stats)
	}
	stats.NormalizeRuns++
	stats.NormalizedSourceFacts = nsrc.Len()
	nsrc.Freeze()

	// Firing-order hazards decidable before firing anything:
	//
	//   - L is the last existential tgd the base run fired. A delta
	//     firing that creates nulls at an earlier tgd index would have
	//     its family ids interleaved before later base families in the
	//     full run, while the continuation generator numbers them after
	//     — checked per firing below.
	//   - An existential tgd the base fired ≥2 times whose multi-atom
	//     body gained delta rows may enumerate its base homomorphisms in
	//     a different order in the full run (the adaptive join order
	//     keys on posting sizes), permuting null ids.
	//   - A delta firing into a relation that appears in the head of a
	//     later existential tgd the base run fired could flip that tgd's
	//     Exists outcome for a base homomorphism in the full run,
	//     suppressing a base firing — precomputed as existHazard and
	//     checked per firing below.
	L := -1
	for i := range cm.tgds {
		if len(cm.tgds[i].exist) > 0 && base.fires[i] > 0 {
			L = i
		}
	}
	frontRels := make(map[string]bool)
	for _, rel := range frontier.Relations() {
		frontRels[rel] = true
	}
	for i := range cm.tgds {
		d := &cm.tgds[i]
		if len(d.exist) > 0 && base.fires[i] >= 2 && len(d.body) >= 2 {
			for _, a := range d.body {
				if frontRels[a.Rel] {
					return deltaFallback(combined, cm, opts, stats)
				}
			}
		}
	}
	existHazard := make([]map[string]bool, len(cm.tgds))
	suffix := make(map[string]bool)
	for i := len(cm.tgds) - 1; i >= 0; i-- {
		existHazard[i] = suffix
		d := &cm.tgds[i]
		if len(d.exist) > 0 && base.fires[i] > 0 {
			next := make(map[string]bool, len(suffix)+len(d.head))
			for rel := range suffix {
				next[rel] = true
			}
			for _, atom := range d.head {
				next[atom.Rel] = true
			}
			suffix = next
		}
	}

	// Delta tgd phase against a clone of the retained pre-egd target
	// (the solution itself when the mapping has no egds), continuing the
	// base run's null numbering.
	var tgtc *instance.Concrete
	if base.preEgd != nil {
		tgtc = base.preEgd.CloneWith(in)
	} else {
		tgtc = base.sol.CloneWith(in)
	}
	gen := value.NullGenAt(base.genLast)
	fires := slices.Clone(base.fires)
	bounds := make(map[string]int)
	for _, rel := range tgtc.Store().Relations() {
		bounds[rel] = tgtc.Store().Rel(rel).NumRows()
	}

	k := newTGDKernel(cm, nsrc, tgtc)
	var vec, rows []value.ID
	seen := 0
	for di := range cm.tgds {
		d := &cm.tgds[di]
		if err = ctxErr(ctx); err != nil {
			return nil, stats, nil, err
		}
		hasExist := len(d.exist) > 0
		firedHere := 0
		fellBack := false
		logic.ForEachIDsDelta(nsrc.Store(), d.body, frontier, func(_ int, m *logic.IDMatch) bool {
			stats.TGDHoms++
			seen++
			if seen&ctxCheckMask == 0 {
				if err = ctxErr(ctx); err != nil {
					return false
				}
			}
			if vec, err = appendVec(vec[:0], d, m); err != nil {
				return false
			}
			if logic.ExistsIDs(tgtc.Store(), d.head, d.vecVars, vec) {
				// With existentials, the extension may pre-exist via base
				// facts of later tgds the full run has not fired yet at
				// this point: whether the full run fires is undecidable
				// here.
				fellBack = hasExist
				return !fellBack
			}
			switch {
			case hasExist && len(d.body) >= 2 && (base.fires[di] >= 1 || firedHere >= 1):
				// Base and delta firings of a multi-atom body interleave
				// under the full run's adaptive join order.
				fellBack = true
			case hasExist && di < L:
				fellBack = true
			default:
				for _, atom := range d.head {
					fellBack = fellBack || existHazard[di][atom.Rel]
				}
			}
			if fellBack {
				return false
			}
			if rows, err = k.headRows(rows[:0], di, vec, gen, &stats); err != nil {
				return false
			}
			if err = k.fire(tgtc, di, rows, fires, opts, &stats); err != nil {
				return false
			}
			stats.DeltaFires++
			firedHere++
			return true
		})
		if err != nil {
			return nil, stats, nil, err
		}
		if fellBack {
			return deltaFallback(combined, cm, opts, stats)
		}
	}

	var sol *instance.Concrete
	if len(cm.egdBodies) == 0 {
		sol = tgtc
	} else {
		out, fellBack, err := deltaEgds(ctx, base, cm, tgtc, bounds, opts, &stats)
		if err != nil {
			return nil, stats, nil, err
		}
		if fellBack {
			return deltaFallback(combined, cm, opts, stats)
		}
		sol = out
	}

	sol.Freeze()
	var preEgd *instance.Concrete
	if len(cm.egdBodies) > 0 {
		tgtc.Freeze()
		preEgd = tgtc
	}
	next := &BaseState{
		cm:      cm,
		src:     combined,
		nsrc:    nsrc,
		preEgd:  preEgd,
		sol:     sol,
		genLast: gen.Last(),
		fires:   fires,
		norm:    base.norm,
		egdMode: base.egdMode,
	}
	return sol, stats, next, nil
}

// deltaFallback abandons the incremental path and chases the combined
// source from scratch, preserving the delta accounting.
func deltaFallback(combined *instance.Concrete, cm *Compiled, opts *Options, stats Stats) (*instance.Concrete, Stats, *BaseState, error) {
	out, st, next, err := ConcreteCompiled(combined, cm, opts)
	st.DeltaFacts = stats.DeltaFacts
	st.FallbackFullChase = true
	return out, st, next, err
}

// deltaEgds runs the incremental egd rounds: the new target rows seed
// the dirty set over a clone of the retained solution, each round
// checks that renormalization would leave the dirty frontier untouched
// (all delta-involving egd-body match sets interval-aligned), scans
// only dirty-involving homomorphisms for merge candidates, and rewrites
// in place, feeding rewritten rows — base rows included — back into the
// dirty set. It reports fellBack=true when a round breaks an invariant
// the retained state depends on (misaligned match set) or the base
// rewrite budget is exhausted.
func deltaEgds(ctx context.Context, base *BaseState, cm *Compiled, tgtc *instance.Concrete, bounds map[string]int, opts *Options, stats *Stats) (*instance.Concrete, bool, error) {
	out := base.sol.CloneWith(tgtc.Interner())
	dirty := logic.NewDeltaSet()
	baseRows := make(map[string]int)
	for _, rel := range out.Store().Relations() {
		baseRows[rel] = out.Store().Rel(rel).NumRows()
	}
	for _, rel := range tgtc.Store().Relations() {
		r := tgtc.Store().Rel(rel)
		for row := bounds[rel]; row < r.NumRows(); row++ {
			added, err := out.InsertRowOf(tgtc, rel, row)
			if err != nil {
				return nil, false, err
			}
			if added {
				dirty.Add(rel, out.Store().Rel(rel).NumRows()-1)
			}
		}
	}
	if dirty.Len() == 0 {
		return out, false, nil
	}

	stats.EgdWorkers = 1
	rewrittenBase := 0
	for {
		stats.EgdRounds++
		if err := ctxErr(ctx); err != nil {
			return nil, false, err
		}
		// Guard: renormalizing w.r.t. the egd bodies must not fragment
		// anything on the dirty frontier, or the retained base
		// fragmentation no longer matches what a full run would produce.
		aligned, err := normalize.DeltaAligned(ctx, out, cm.egdBodies, dirty)
		if err != nil {
			return nil, false, err
		}
		if !aligned {
			return nil, true, nil
		}

		uf := newValueUF(out.Interner())
		if err := scanEgds(ctx, out.Store(), cm.m.EGDs, cm.egdBodies, dirty, false, uf, opts, stats); err != nil {
			return nil, false, err
		}
		if !uf.dirty() {
			return out, false, nil
		}
		n := out.Store().SubstituteIDsTouched(uf.substituted(), uf.canon, func(rel string, row int) {
			dirty.Add(rel, row)
			if row < baseRows[rel] {
				rewrittenBase++
			}
		})
		stats.RowsRewritten += n
		stats.BaseRowsRewritten = rewrittenBase
		if rewrittenBase > deltaBaseRowLimit {
			return nil, true, nil
		}
	}
}
