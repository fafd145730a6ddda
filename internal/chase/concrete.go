package chase

import (
	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/normalize"
	"repro/internal/value"
)

// Concrete runs the c-chase of Definition 16 / §4.3 on a concrete source
// instance: ConcreteCompiled under a mapping compiled for this call, so
// ic is frozen and the solution comes back frozen. On success the
// returned instance is a concrete solution; ⟦Jc⟧ is a universal solution
// for ⟦Ic⟧ (Theorem 19). Callers that chase one mapping against many
// sources should CompileMapping once and use ConcreteCompiled (the tdx
// facade does).
func Concrete(ic *instance.Concrete, m *dependency.Mapping, opts *Options) (*instance.Concrete, Stats, error) {
	cm, err := CompileMapping(m)
	if err != nil {
		return nil, Stats{}, err
	}
	out, stats, _, err := ConcreteCompiled(ic, cm, opts)
	return out, stats, err
}

// ConcreteCompiled runs the c-chase — stages 1 to 4 of the package
// comment — against a pre-compiled mapping. It returns the solution and
// a BaseState retaining the run for ConcreteDelta; both are frozen and
// safe to share. ic is frozen here (the BaseState retains it) but never
// written. cm is read-only, so any number of runs, concurrent ones
// included, may share it. On failure the error wraps ErrNoSolution, or
// the context's error when Options.Ctx is done.
func ConcreteCompiled(ic *instance.Concrete, cm *Compiled, opts *Options) (*instance.Concrete, Stats, *BaseState, error) {
	var stats Stats
	ctx := opts.ctx()
	if err := ctxErr(ctx); err != nil {
		return nil, stats, nil, err
	}
	ic.Freeze()

	src, err := normalize.ForMappingCtx(ctx, ic, cm.tgdBodies, opts.norm())
	if err != nil {
		return nil, stats, nil, err
	}
	stats.NormalizeRuns++
	stats.NormalizedSourceFacts = src.Len()
	opts.emit(EventNormalize, "", "source normalized (%s): %d → %d facts", opts.norm(), ic.Len(), src.Len())
	src.Freeze()

	// One interner per run: the target shares the normalized source's
	// interner — the overlay normalization layered on ic's frozen
	// interner when it split a fact — or layers that overlay itself.
	// Fragments, head rows, nulls and egd-round fragments all go into it,
	// so a source ID is already a run ID.
	gen := &value.NullGen{}
	fires := make([]int, len(cm.tgds))
	tgt := instance.NewConcreteWith(cm.m.Target, src.Interner())
	if err := tgdPhase(ctx, src, tgt, cm, gen, fires, opts, &stats); err != nil {
		return nil, stats, nil, err
	}
	var preEgd *instance.Concrete
	if len(cm.egdBodies) > 0 {
		preEgd = tgt.Clone()
		preEgd.Freeze()
	}

	sol, err := concreteEgds(tgt, cm, opts, &stats)
	if err != nil {
		return nil, stats, nil, err
	}
	sol.Freeze()
	base := &BaseState{
		cm:      cm,
		src:     ic,
		nsrc:    src,
		preEgd:  preEgd,
		sol:     sol,
		genLast: gen.Last(),
		fires:   fires,
		norm:    opts.norm(),
		egdMode: opts.egd(),
	}
	return sol, stats, base, nil
}

// concreteEgds is the egd phase (stage 3): rounds of renormalization,
// merge-candidate scan, merge and rewrite until a round merges nothing.
// It owns tgt: rounds rewrite it in place, or rewrite a clone when it is
// frozen, so the solution may come back frozen.
func concreteEgds(tgt *instance.Concrete, cm *Compiled, opts *Options, stats *Stats) (*instance.Concrete, error) {
	if len(cm.egdBodies) == 0 {
		return tgt, nil
	}
	ctx := opts.ctx()
	stepwise := opts.egd() == EgdStepwise
	stats.EgdWorkers = 1
	naiveDone := false
	for {
		stats.EgdRounds++
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		// Normalize w.r.t. lhs(Σeg) and synchronize null families (an egd
		// identification replaces an annotated null "everywhere", which is
		// only sound when all overlapping occurrences of a family carry the
		// same annotation): every round for Smart; once for Naive (rewrites
		// never change intervals, so the global fragmentation — which is
		// family-consistent by construction — stays normalized).
		if opts.norm() == normalize.StrategyNaive {
			if !naiveDone {
				tgt = normalize.Naive(tgt)
				stats.NormalizeRuns++
				naiveDone = true
			}
		} else {
			norm, err := normalize.ForEgdPhaseCtx(ctx, tgt, cm.egdBodies, normalize.StrategySmart)
			if err != nil {
				return nil, err
			}
			tgt = norm
			stats.NormalizeRuns++
			opts.emit(EventNormalize, "", "target normalized for egd round %d: %d facts", stats.EgdRounds, tgt.Len())
		}

		uf := newValueUF(tgt.Interner())
		if err := scanEgds(ctx, tgt.Store(), cm.m.EGDs, cm.egdBodies, nil, stepwise, uf, opts, stats); err != nil {
			return nil, err
		}
		if !uf.dirty() {
			return tgt, nil
		}
		if tgt.Frozen() {
			// A frozen target forbids substitution; Clone preserves the
			// physical layout exactly, so rewriting the clone is
			// byte-identical to rewriting in place.
			tgt = tgt.Clone()
		}
		// Apply the union-find in place. Identifications are per
		// annotated-null value — the same family fragmented over two
		// intervals yields two independent unknowns (one per snapshot
		// range), and only the equated fragment is replaced, exactly as
		// the abstract semantics requires. The substitution preserves the
		// fact invariants: arity is unchanged, and an egd only equates
		// values from facts with identical intervals, so annotations keep
		// matching their fact's interval.
		stats.RowsRewritten += tgt.Store().SubstituteIDs(uf.substituted(), uf.canon)
	}
}

// EgdPhase runs the egd phase (stage 3) alone, for callers that build the
// target themselves — the temporal (§7) chase. The phase owns tgt: it may
// rewrite tgt in place or freeze it, and the result may come back
// frozen. A frozen tgt is never written.
func EgdPhase(tgt *instance.Concrete, cm *Compiled, opts *Options) (*instance.Concrete, Stats, error) {
	var stats Stats
	out, err := concreteEgds(tgt, cm, opts, &stats)
	return out, stats, err
}
