package chase

import (
	"fmt"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/value"
)

// snapshot runs the standard relational chase of Fagin et al. on a single
// snapshot: all s-t tgd steps against the (static) source snapshot,
// followed by egd rounds to a fixpoint, both over the plain bodies of
// cm. freshNull supplies the labeled null created per existential
// variable per firing. The source snapshot is never modified.
//
// This is the per-snapshot building block of the abstract chase (§3): the
// paper applies it independently to every db_ℓ of the abstract instance.
func snapshot(src *instance.Snapshot, cm *Compiled, freshNull func() value.Value, opts *Options) (*instance.Snapshot, Stats, error) {
	var stats Stats
	ctx := opts.ctx()
	// Share the source snapshot's interner so the tgd phase's Exists
	// probes and the egd phase's rewrites stay ID-compatible.
	tgt := instance.NewSnapshotWith(src.Interner())

	// TGD phase: bodies read only the source, so one pass over all
	// homomorphisms reaches the fixpoint.
	for _, d := range cm.tgds {
		if err := ctxErr(ctx); err != nil {
			return nil, stats, err
		}
		ms := logic.FindAll(src.Store(), d.d.Body, nil)
		stats.TGDHoms += len(ms)
		for hi, h := range ms {
			if hi&ctxCheckMask == 0 {
				if err := ctxErr(ctx); err != nil {
					return nil, stats, err
				}
			}
			if logic.Exists(tgt.Store(), d.d.Head, h.Binding) {
				continue // an extension to the head already exists
			}
			stats.TGDFires++
			ext := h.Binding.Clone()
			for _, y := range d.exist {
				ext[y] = freshNull()
				stats.NullsCreated++
			}
			for _, atom := range d.d.Head {
				args := make([]value.Value, len(atom.Terms))
				for i, t := range atom.Terms {
					v, ok := ext.Apply(t)
					if !ok {
						return nil, stats, fmt.Errorf("chase: unbound head variable %v in tgd %s", t, d.d.Name)
					}
					args[i] = v
				}
				if tgt.Insert(fact.New(atom.Rel, args...)) {
					stats.FactsCreated++
				}
			}
		}
	}

	out, err := snapshotEgds(tgt, cm, opts, &stats)
	return out, stats, err
}

// snapshotEgds applies the egds of the compiled mapping to the snapshot
// until satisfied, matching the plain, non-temporal egd bodies. It owns
// tgt and rewrites it in place.
func snapshotEgds(tgt *instance.Snapshot, cm *Compiled, opts *Options, stats *Stats) (*instance.Snapshot, error) {
	ctx := opts.ctx()
	stepwise := opts.egd() == EgdStepwise
	stats.EgdWorkers = 1
	for {
		stats.EgdRounds++
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		uf := newValueUF(tgt.Interner())
		if err := scanEgds(ctx, tgt.Store(), cm.m.EGDs, cm.egdPlain, nil, stepwise, uf, opts, stats); err != nil {
			return nil, err
		}
		if !uf.dirty() {
			return tgt, nil
		}
		stats.RowsRewritten += tgt.Store().SubstituteIDs(uf.substituted(), uf.canon)
	}
}
