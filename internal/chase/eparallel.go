package chase

import (
	"context"

	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/storage"
	"repro/internal/value"
)

// The egd round's merge-candidate scan and merge step.
//
// An egd round has three parts: renormalize the target w.r.t. the egd
// bodies (Smart strategy), scan every egd body for merge candidates, and
// rewrite the target through the union-find. The first two are
// enumeration-heavy and read-only, so they parallelize the same way the
// tgd phase does: the intermediate target is frozen (all lazy structures
// built, reads mutation-free), each worker sweeps one contiguous shard of
// every conjunction, and the shards concatenate in worker-rank order to
// exactly the sequential enumeration order.
//
// Byte-identical output to the sequential chase is preserved because the
// order-sensitive state never leaves the merge step:
//
//   - Renormalization (normalize.ForEgdPhaseWorkers): workers collect
//     candidate match sets per renamed conjunction; the merge replays the
//     hash-dedup over the rank-ordered concatenation, reproducing the
//     sequential set list, and fragmentation runs sequentially on it.
//
//   - Merge-candidate scan (scanEgds): workers record the raw (X1, X2) ID
//     pairs of every match; the replay walks them in (egd, stage,
//     worker-rank) order, applying mergeStep exactly as the sequential
//     scan does during enumeration — same merge sequence, same canonical
//     representatives, same first failure, same trace events.
//
//   - The rewrite (SubstituteIDs) stays sequential. A frozen store
//     forbids substitution, so the round rewrites a Clone — Store.Clone
//     preserves the physical layout (segments, row numbering, dedup
//     state) exactly, which keeps the rewritten instance byte-identical
//     to the sequential in-place rewrite.
//
// Stepwise egd application (EgdStepwise) re-searches after every single
// merge, so its scans stay sequential — the parallel scan would
// enumerate the whole round to apply one merge. Rounds over targets
// below parallelCutoffFacts also stay sequential, where the freeze +
// fan-out overhead dominates.

// mergeStep is the chase step of the egd labeled dep on the candidate
// pair (b1, b2): it unites their classes in uf and reports whether two
// classes merged. Equating two distinct constants is the failing step:
// no solution exists.
func mergeStep(uf *valueUF, dep string, b1, b2 value.ID, opts *Options, stats *Stats) (bool, error) {
	v1, v2 := uf.canon(b1), uf.canon(b2)
	if v1 == v2 {
		return false, nil
	}
	in := uf.in
	if err := uf.union(v1, v2); err != nil {
		opts.emit(EventEgdFail, dep, "constants clash: %v ≠ %v", in.Resolve(v1), in.Resolve(v2))
		return false, &FailError{Dep: dep, V1: in.Resolve(v1), V2: in.Resolve(v2)}
	}
	stats.EgdMerges++
	if opts.tracing() {
		opts.emit(EventEgdMerge, dep, "%v = %v", in.Resolve(v1), in.Resolve(v2))
	}
	return true, nil
}

// scanEgds is one egd round's merge-candidate scan: it enumerates
// bodies[i], the body of egds[i], over st and feeds every match's
// (X1, X2) pair to mergeStep against uf. With a nil delta it enumerates
// every homomorphism; otherwise only those touching a delta row, in the
// stage order of logic.ForEachIDsDelta.
//
// With workers ≤ 1 the scan streams, merging during the enumeration and,
// when stepwise, stopping after the first merge. Otherwise st must be
// frozen: each worker collects the pairs of its shard, and the pairs
// replay in (egd, stage, worker-rank) order — the sequential candidate
// stream — so the union-find sees the identical merge sequence.
func scanEgds(ctx context.Context, st *storage.Store, egds []dependency.EGD, bodies []logic.Conjunction, delta *logic.DeltaSet, workers int, stepwise bool, uf *valueUF, opts *Options, stats *Stats) error {
	stages := 1
	if delta != nil {
		for _, b := range bodies {
			stages = max(stages, len(b))
		}
	}
	// each enumerates shard w of parts, yielding matches with their egd
	// index and stage; yield returning false stops the sweep.
	each := func(w, parts int, yield func(i, stage int, m *logic.IDMatch) bool) {
		for i, body := range bodies {
			ok := true
			if delta == nil {
				logic.ForEachIDsPart(st, body, nil, w, parts, func(m *logic.IDMatch) bool {
					ok = yield(i, 0, m)
					return ok
				})
			} else {
				logic.ForEachIDsDeltaPart(st, body, delta, w, parts, func(stage int, m *logic.IDMatch) bool {
					ok = yield(i, stage, m)
					return ok
				})
			}
			if !ok {
				return
			}
		}
	}

	if workers <= 1 {
		var err error
		seen := 0
		each(0, 1, func(i, _ int, m *logic.IDMatch) bool {
			seen++
			if seen&ctxCheckMask == 0 {
				if err = ctxErr(ctx); err != nil {
					return false
				}
			}
			d := &egds[i]
			b1, _ := m.ID(d.X1)
			b2, _ := m.ID(d.X2)
			merged, stepErr := mergeStep(uf, d.Name, b1, b2, opts, stats)
			if stepErr != nil {
				err = stepErr
				return false
			}
			return !(merged && stepwise)
		})
		return err
	}

	// Per worker, the flat (b1, b2) pairs of each (egd, stage) in
	// enumeration order. Pairs with b1 == b2 are dropped at the source —
	// mergeStep would skip them unconditionally.
	pairs := make([][][]value.ID, workers)
	errs := make([]error, workers)
	fanOut(workers, func(w int) {
		out := make([][]value.ID, len(egds)*stages)
		seen := 0
		each(w, workers, func(i, stage int, m *logic.IDMatch) bool {
			seen++
			if seen&ctxCheckMask == 0 {
				if errs[w] = ctxErr(ctx); errs[w] != nil {
					return false
				}
			}
			b1, _ := m.ID(egds[i].X1)
			b2, _ := m.ID(egds[i].X2)
			if b1 != b2 {
				k := i*stages + stage
				out[k] = append(out[k], b1, b2)
			}
			return true
		})
		pairs[w] = out
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	seen := 0
	for k := 0; k < len(egds)*stages; k++ {
		dep := egds[k/stages].Name
		for w := range pairs {
			ps := pairs[w][k]
			for j := 0; j < len(ps); j += 2 {
				seen++
				if seen&ctxCheckMask == 0 {
					if err := ctxErr(ctx); err != nil {
						return err
					}
				}
				if _, err := mergeStep(uf, dep, ps[j], ps[j+1], opts, stats); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
