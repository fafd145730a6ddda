package chase

import (
	"fmt"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/value"
)

// Abstract runs the abstract chase (paper §3):
//
//	chase(Ia, M) = ⟨chase(db0, M), chase(db1, M), ...⟩
//
// applied to the finite segmented representation: every snapshot inside a
// segment is an identical copy, so one chase per segment suffices, with
// the fresh nulls materialized as interval-annotated families over the
// segment — precisely the "fresh labeled nulls produced in a snapshot are
// distinct from the labeled nulls produced in the other snapshots"
// requirement, since a family projects to a distinct null per snapshot.
//
// A failure in any segment is a failure of the whole chase, and by
// Proposition 4 part 2 proves that no solution exists.
//
// Segments are chased in order, each by one per-snapshot chase that
// interns into one private interner of this call, so null family ids
// follow the segment order. Segment results cross back as value-level
// facts.
func Abstract(ia *instance.Abstract, m *dependency.Mapping, opts *Options) (*instance.Abstract, Stats, error) {
	cm, err := CompileMapping(m)
	if err != nil {
		return nil, Stats{}, err
	}
	gen := &value.NullGen{}
	ctx := opts.ctx()
	sopts := opts.quiet()
	in := value.NewInterner()
	var total Stats
	var segs []instance.Segment
	for _, seg := range ia.Segments() {
		if err := ctxErr(ctx); err != nil {
			return nil, total, err
		}
		tseg, stats, err := chaseSegment(seg, cm, gen, in, sopts)
		total.Add(stats)
		if err != nil {
			return nil, total, err
		}
		segs = append(segs, tseg)
	}
	out, err := instance.NewAbstract(segs)
	if err != nil {
		return nil, total, err
	}
	return out, total, nil
}

// quiet returns a copy of o without the trace hook, so the per-snapshot
// chases emit no events (see Options.Trace).
func (o *Options) quiet() *Options {
	var c Options
	if o != nil {
		c = *o
	}
	c.Trace = nil
	return &c
}

// chaseSegment chases one segment's representative snapshot, returning
// the target segment. The source snapshot interns into in, so later
// segments reuse already-interned constants.
func chaseSegment(seg instance.Segment, cm *Compiled, gen *value.NullGen, in *value.Interner, opts *Options) (instance.Segment, Stats, error) {
	// Source instances are complete (paper §2), so segment facts carry
	// only constants; reject anything else loudly.
	src := instance.NewSnapshotWith(in)
	for _, f := range seg.Facts {
		for _, v := range f.Args {
			if !v.IsConst() {
				return instance.Segment{}, Stats{}, fmt.Errorf("chase: abstract source must be complete, found %v in segment %v", v, seg.Iv)
			}
		}
		src.Insert(fact.New(f.Rel, f.Args...))
	}
	segIv := seg.Iv
	fresh := func() value.Value { return gen.FreshAnn(segIv) }
	tgtSnap, stats, err := snapshot(src, cm, fresh, opts)
	if err != nil {
		return instance.Segment{}, stats, fmt.Errorf("in segment %v: %w", seg.Iv, err)
	}
	tgtSeg := instance.Segment{Iv: segIv}
	for _, f := range tgtSnap.Facts() {
		tgtSeg.Facts = append(tgtSeg.Facts, fact.NewC(f.Rel, segIv, f.Args...))
	}
	return tgtSeg, stats, nil
}
