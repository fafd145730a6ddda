package chase

import (
	"fmt"
	"sync/atomic"

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
// Segments are independent (the dependencies are non-temporal), so
// Options.Workers of them are chased concurrently. Each worker interns
// into a private interner, so workers never contend on one interner
// lock; segment results cross back as value-level facts. The result is
// deterministic up to null family ids: with more than one worker the
// shared generator issues ids in scheduling order (snapshots are
// isomorphic).
func Abstract(ia *instance.Abstract, m *dependency.Mapping, opts *Options) (*instance.Abstract, Stats, error) {
	cm, err := CompileMapping(m)
	if err != nil {
		return nil, Stats{}, err
	}
	segsIn := ia.Segments()
	workers := min(opts.workers(), len(segsIn))
	gen := &value.NullGen{}
	ctx := opts.ctx()

	// Workers claim segments in order and stop claiming after a failure,
	// so every segment before the first failing one has been chased.
	results := make([]segResult, len(segsIn))
	var next atomic.Int64
	var failed atomic.Bool
	fanOut(workers, func(int) {
		wopts := opts.quiet()
		wopts.Interner = value.NewInterner()
		for !failed.Load() {
			idx := int(next.Add(1)) - 1
			if idx >= len(segsIn) {
				return
			}
			r := &results[idx]
			if r.err = ctxErr(ctx); r.err == nil {
				*r = chaseSegment(segsIn[idx], cm, gen, wopts)
			}
			if r.err != nil {
				failed.Store(true)
			}
		}
	})

	var total Stats
	segs := make([]instance.Segment, len(segsIn))
	for i, r := range results {
		total.Add(r.stats)
		if r.err != nil {
			return nil, total, r.err
		}
		segs[i] = r.seg
	}
	out, err := instance.NewAbstract(segs)
	if err != nil {
		return nil, total, err
	}
	return out, total, nil
}

// quiet returns a copy of o without the trace hook, for the per-snapshot
// chases: the abstract chase's workers run concurrently, so their events
// would interleave.
func (o *Options) quiet() *Options {
	var c Options
	if o != nil {
		c = *o
	}
	c.Trace = nil
	return &c
}

// segResult is the outcome of chasing one segment.
type segResult struct {
	seg   instance.Segment
	stats Stats
	err   error
}

// chaseSegment chases one segment's representative snapshot, returning
// the target segment. The source snapshot adopts the Options interner,
// so a worker's segments reuse already-interned constants.
func chaseSegment(seg instance.Segment, cm *Compiled, gen *value.NullGen, opts *Options) (res segResult) {
	// Source instances are complete (paper §2), so segment facts carry
	// only constants; reject anything else loudly.
	src := instance.NewSnapshotWith(opts.interner(nil))
	for _, f := range seg.Facts {
		for _, v := range f.Args {
			if !v.IsConst() {
				res.err = fmt.Errorf("chase: abstract source must be complete, found %v in segment %v", v, seg.Iv)
				return res
			}
		}
		src.Insert(fact.New(f.Rel, f.Args...))
	}
	segIv := seg.Iv
	fresh := func() value.Value { return gen.FreshAnn(segIv) }
	tgtSnap, stats, err := snapshot(src, cm, fresh, opts)
	res.stats = stats
	if err != nil {
		res.err = fmt.Errorf("in segment %v: %w", seg.Iv, err)
		return res
	}
	tgtSeg := instance.Segment{Iv: segIv}
	for _, f := range tgtSnap.Facts() {
		tgtSeg.Facts = append(tgtSeg.Facts, fact.NewC(f.Rel, segIv, f.Args...))
	}
	res.seg = tgtSeg
	return res
}
