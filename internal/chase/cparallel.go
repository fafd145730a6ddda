package chase

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/storage"
	"repro/internal/value"
)

// The partitioned parallel concrete tgd phase.
//
// The s-t tgd bodies read only the normalized source, so the expensive
// part of the phase — enumerating every homomorphism of every body — is
// embarrassingly parallel: the source store is frozen (all lazy
// structures built, reads mutation-free) and each worker enumerates one
// contiguous shard of the candidate range via logic.ForEachIDsPart,
// whose shards concatenate to exactly the sequential enumeration order.
//
// Byte-identical output to the sequential chase is preserved by a
// two-level scheme keyed on whether a tgd invents nulls:
//
//   - Tgds without existentials fire entirely inside the workers: each
//     worker instantiates head rows (interning through the shared
//     thread-safe target interner), dedups them against a private target
//     store, and records the instantiated rows of every locally-new
//     firing. The merge replays the records in (tgd, worker-rank, shard)
//     order with Store.InsertIDs — the same order the sequential pass
//     fires in — so dedup outcomes, row numbering, fire counts, and
//     fact counts all coincide with the sequential pass: a record whose
//     facts an earlier-ranked worker already created inserts nothing,
//     exactly like the sequential Exists skip.
//
//   - Tgds with existentials must consult global state per firing (the
//     Exists check spans all prior firings, and null family ids must be
//     issued in sequential order), so workers only enumerate: they record
//     the universal head bindings per match, and the merge replays the
//     Exists check and the firing — fresh nulls included — sequentially
//     in rank order, which reproduces the sequential pass exactly.
//
// The egd phase parallelizes with the same freeze-and-shard scheme — its
// renormalization and merge-candidate scans fan out per round, with only
// the union-find replay and the rewrite sequential (see eparallel.go).
// Inputs below parallelCutoffFacts run sequentially throughout, where
// the freeze + fan-out overhead dominates.

// parallelCutoffFacts is the input size below which a sharded
// enumeration ignores Options.Workers and runs sequentially: freezing the
// input and spinning up workers costs more than enumerating a few
// hundred facts outright.
const parallelCutoffFacts = 128

// fanOut runs fn(w) for every shard w < workers and returns once all
// have: on the calling goroutine when workers ≤ 1, else one goroutine per
// shard.
func fanOut(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// tgdPhase is the tgd phase (stage 2): it dispatches the s-t tgd pass to
// the sequential or the partitioned parallel implementation. Both are
// byte-identical; the choice only affects wall time. fires[i] counts the
// firings of the i-th tgd.
func tgdPhase(ctx context.Context, src, tgt *instance.Concrete, cm *Compiled, gen *value.NullGen, fires []int, opts *Options, stats *Stats) error {
	workers := opts.workers()
	if workers > 1 && len(cm.tgds) > 0 && src.Len() >= parallelCutoffFacts {
		return tgdPhaseParallel(ctx, src, tgt, cm, gen, fires, opts, stats, workers)
	}
	stats.TGDWorkers = 1
	return tgdPhaseSeq(ctx, src, tgt, cm, gen, fires, opts, stats)
}

// fireRec is one tgd firing recorded by a worker for the rank-ordered
// merge: for a tgd with existentials the universal head bindings (vals,
// in compiledTGD.headVars order) and the firing interval; for a tgd
// without, nothing — its instantiated head rows live in the worker's
// flat row arena instead.
type fireRec struct {
	t    interval.Interval
	vals []value.Value
}

// shardOut is everything one worker produced: per tgd, the number of
// homomorphisms enumerated, the firing records (existential tgds), and
// the flat arena of instantiated head rows (non-existential tgds; fixed
// stride per tgd, one stride per locally-new firing).
type shardOut struct {
	homs  []int
	fires [][]fireRec
	rows  [][]value.ID
	err   error
}

// headRowWidth returns the flat-arena stride of a tgd: the summed stored
// width of its head atoms (data positions plus the interval tail).
func headRowWidth(d *compiledTGD) int {
	w := 0
	for _, atom := range d.head {
		w += len(atom.Terms)
	}
	return w
}

// tgdPhaseParallel is the partitioned parallel s-t tgd pass. src must be
// owned by this run (it is frozen here); tgt must be empty.
func tgdPhaseParallel(ctx context.Context, src, tgt *instance.Concrete, cm *Compiled, gen *value.NullGen, fires []int, opts *Options, stats *Stats, workers int) error {
	src.Store().Freeze()
	stats.TGDWorkers = workers
	tgtIn := tgt.Interner()

	outs := make([]shardOut, workers)
	fanOut(workers, func(w int) {
		outs[w] = enumerateShard(ctx, src, cm, tgtIn, w, workers)
	})
	for w := range outs {
		if err := outs[w].err; err != nil {
			return err
		}
	}

	// Merge in (tgd, worker-rank) order: shard concatenation is the
	// sequential enumeration order, so replaying records in this order
	// reproduces the sequential pass — same Exists outcomes, same null
	// family ids, same insertion (and therefore row-numbering) order.
	seen := 0
	for di := range cm.tgds {
		d := &cm.tgds[di]
		hasExist := len(d.exist) > 0
		width := headRowWidth(d)
		for w := 0; w < workers; w++ {
			out := &outs[w]
			stats.TGDHoms += out.homs[di]
			if hasExist {
				for ri := range out.fires[di] {
					rec := &out.fires[di][ri]
					seen++
					if seen&ctxCheckMask == 0 {
						if err := ctxErr(ctx); err != nil {
							return err
						}
					}
					bind := make(logic.Binding, len(d.headVars)+1)
					for i, name := range d.headVars {
						bind[name] = rec.vals[i]
					}
					bind[dependency.TemporalVar] = value.NewInterval(rec.t)
					if logic.Exists(tgt.Store(), d.head, bind) {
						continue
					}
					if err := fireTGD(tgt, d, bind, rec.t, gen, opts, stats); err != nil {
						return err
					}
					fires[di]++
				}
				continue
			}
			rows := out.rows[di]
			if len(rows) > 0 {
				if err := checkHeadSchema(tgt, d); err != nil {
					return err
				}
			}
			for base := 0; base < len(rows); base += width {
				seen++
				if seen&ctxCheckMask == 0 {
					if err := ctxErr(ctx); err != nil {
						return err
					}
				}
				added := false
				off := base
				for _, atom := range d.head {
					n := len(atom.Terms)
					if tgt.Store().InsertIDs(atom.Rel, rows[off:off+n]) {
						added = true
						stats.FactsCreated++
					}
					off += n
				}
				if added {
					stats.TGDFires++
					fires[di]++
					if opts.tracing() {
						t, _ := tgtIn.Resolve(rows[off-1]).Interval()
						opts.emit(EventTGDFire, d.d.Name, "fired at %v", t)
					}
				}
			}
		}
	}
	return nil
}

// checkHeadSchema mirrors the schema-level validation the sequential
// pass gets from instance.Insert, which the merge's InsertIDs fast path
// bypasses (the fact-level Validate runs in the workers, per firing).
// Like the sequential pass it only runs when the tgd actually fired.
func checkHeadSchema(tgt *instance.Concrete, d *compiledTGD) error {
	for _, atom := range d.head {
		if err := tgt.CheckRel(atom.Rel, len(atom.Terms)-1); err != nil {
			return fmt.Errorf("chase: tgd %s: %w", d.d.Name, err)
		}
	}
	return nil
}

// enumerateShard runs one worker: shard w of the homomorphism
// enumeration of every tgd body against the frozen normalized source.
// Matches of existential tgds are recorded as universal head bindings;
// matches of non-existential tgds are instantiated to head rows right
// here — interned through the shared thread-safe target interner and
// deduplicated against a worker-private target store, the worker-local
// analogue of the sequential Exists skip.
func enumerateShard(ctx context.Context, src *instance.Concrete, cm *Compiled, tgtIn *value.Interner, w, workers int) (out shardOut) {
	srcIn := src.Interner()
	out.homs = make([]int, len(cm.tgds))
	out.fires = make([][]fireRec, len(cm.tgds))
	out.rows = make([][]value.ID, len(cm.tgds))
	priv := storage.NewStoreWith(tgtIn)
	seen := 0
	var vbuf []value.Value
	var idbuf []value.ID
	for di := range cm.tgds {
		d := &cm.tgds[di]
		hasExist := len(d.exist) > 0
		logic.ForEachIDsPart(src.Store(), d.body, nil, w, workers, func(im *logic.IDMatch) bool {
			out.homs[di]++
			seen++
			if seen&ctxCheckMask == 0 {
				if out.err = ctxErr(ctx); out.err != nil {
					return false
				}
			}
			if !hasExist && len(d.head) == 0 {
				// Degenerate headless tgd: nothing to fire (the sequential
				// pass skips it through its always-true Exists check).
				return true
			}
			tid, ok := im.ID(dependency.TemporalVar)
			if !ok {
				out.err = fmt.Errorf("chase: tgd %s: temporal variable unbound", d.d.Name)
				return false
			}
			t, ok := srcIn.Resolve(tid).Interval()
			if !ok {
				out.err = fmt.Errorf("chase: tgd %s: temporal variable unbound", d.d.Name)
				return false
			}
			if hasExist {
				vals := make([]value.Value, len(d.headVars))
				for i, name := range d.headVars {
					id, ok := im.ID(name)
					if !ok {
						out.err = fmt.Errorf("chase: tgd %s: unbound head variable ?%s", d.d.Name, name)
						return false
					}
					vals[i] = srcIn.Resolve(id)
				}
				out.fires[di] = append(out.fires[di], fireRec{t: t, vals: vals})
				return true
			}
			// Instantiate the head rows now, through the same fact
			// construction and validation the sequential pass performs per
			// insert; keep them only when some row is new to this worker
			// (otherwise an earlier match of this shard already recorded
			// identical rows, and the merge replay of that earlier record
			// covers this one).
			flat := out.rows[di]
			base := len(flat)
			anyNew := false
			for _, atom := range d.head {
				n := len(atom.Terms) - 1
				args := make([]value.Value, n)
				for i := 0; i < n; i++ {
					term := atom.Terms[i]
					if term.IsVar {
						id, ok := im.ID(term.Name)
						if !ok {
							out.err = fmt.Errorf("chase: tgd %s: unbound head variable %v", d.d.Name, term)
							return false
						}
						args[i] = srcIn.Resolve(id)
					} else {
						args[i] = term.Val
					}
				}
				// NewC re-annotates annotated nulls to the firing interval
				// (a no-op on a normalized source) and Validate rejects the
				// same malformed heads the sequential insert path would.
				f := fact.NewC(atom.Rel, t, args...)
				if err := f.Validate(); err != nil {
					out.err = fmt.Errorf("chase: tgd %s: %w", d.d.Name, err)
					return false
				}
				vbuf = append(vbuf[:0], f.Args...)
				vbuf = append(vbuf, value.NewInterval(t))
				idbuf = tgtIn.InternAll(idbuf[:0], vbuf)
				if priv.InsertIDs(atom.Rel, idbuf) {
					anyNew = true
				}
				flat = append(flat, idbuf...)
			}
			if !anyNew {
				flat = flat[:base]
			}
			out.rows[di] = flat
			return true
		})
		if out.err != nil {
			return out
		}
	}
	return out
}
