package chase

import (
	"fmt"

	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/value"
)

// Pointwise runs the abstract chase literally as defined in §3 — one
// independent relational chase per time point — over the bounded horizon
// [0, horizon). It exists to quantify the cost of taking the abstract
// semantics at face value: its running time grows linearly with the
// timeline span even when the instance's fact count is constant, which is
// precisely why implementations must work on the concrete view (§1, §4).
// The segment-wise Abstract chase and the c-chase produce the same
// semantics at a cost independent of the span.
//
// The result is returned as the sequence of per-point snapshots. Facts
// beyond the horizon are ignored; use Abstract for exact results.
func Pointwise(ic *instance.Concrete, m *dependency.Mapping, horizon interval.Time, opts *Options) ([]*instance.Snapshot, Stats, error) {
	cm, err := CompileMapping(m)
	if err != nil {
		return nil, Stats{}, err
	}
	var total Stats
	gen := &value.NullGen{}
	ctx := opts.ctx()
	popts := opts.quiet()
	out := make([]*instance.Snapshot, 0, int(horizon))
	for tp := interval.Time(0); tp < horizon; tp++ {
		if err := ctxErr(ctx); err != nil {
			return nil, total, err
		}
		src := instance.NewSnapshot()
		for _, f := range ic.Facts() {
			if af, ok := f.Project(tp); ok {
				for _, v := range af.Args {
					if !v.IsConst() {
						return nil, total, fmt.Errorf("chase: pointwise source must be complete, found %v at %v", v, tp)
					}
				}
				src.Insert(af)
			}
		}
		point := tp
		fresh := func() value.Value { return value.NewProjectedNull(gen.Fresh(), point) }
		tgt, stats, err := snapshot(src, cm, fresh, popts)
		total.Add(stats)
		if err != nil {
			return nil, total, fmt.Errorf("at time point %v: %w", tp, err)
		}
		out = append(out, tgt)
	}
	return out, total, nil
}

// Dilate scales every time point of an instance by factor k — the same
// facts and overlap structure spread over a k-times longer timeline. The
// pointwise chase slows down linearly in k; the segment-wise and concrete
// chases do not. Unbounded end points stay unbounded.
func Dilate(ic *instance.Concrete, k interval.Time) *instance.Concrete {
	out := instance.NewConcrete(ic.Schema())
	for _, f := range ic.Facts() {
		end := f.T.End
		if end != interval.Infinity {
			end = end * k
		}
		nf := f.WithInterval(interval.Interval{Start: f.T.Start * k, End: end})
		out.MustInsert(nf)
	}
	return out
}
