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
// rewrite the target through the union-find. The scan streams: each
// match's (X1, X2) pair goes to mergeStep as it is enumerated, in (egd,
// enumeration) order, so the merge sequence, the canonical
// representatives, the first failure and the trace events are a
// function of the target alone.

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
// (X1, X2) pair to mergeStep against uf as the match is enumerated. With
// a nil delta it enumerates every homomorphism; otherwise only those
// touching a delta row, in the stage order of logic.ForEachIDsDelta.
// When stepwise, the scan stops after the first merge.
func scanEgds(ctx context.Context, st *storage.Store, egds []dependency.EGD, bodies []logic.Conjunction, delta *logic.DeltaSet, stepwise bool, uf *valueUF, opts *Options, stats *Stats) error {
	var err error
	seen := 0
	step := func(d *dependency.EGD, m *logic.IDMatch) bool {
		seen++
		if seen&ctxCheckMask == 0 {
			if err = ctxErr(ctx); err != nil {
				return false
			}
		}
		b1, _ := m.ID(d.X1)
		b2, _ := m.ID(d.X2)
		merged, stepErr := mergeStep(uf, d.Name, b1, b2, opts, stats)
		if stepErr != nil {
			err = stepErr
			return false
		}
		return !(merged && stepwise)
	}
	for i, body := range bodies {
		d := &egds[i]
		ok := true
		if delta == nil {
			logic.ForEachIDs(st, body, nil, func(m *logic.IDMatch) bool {
				ok = step(d, m)
				return ok
			})
		} else {
			logic.ForEachIDsDelta(st, body, delta, func(_ int, m *logic.IDMatch) bool {
				ok = step(d, m)
				return ok
			})
		}
		if !ok {
			return err
		}
	}
	return nil
}
