package chase

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/storage"
	"repro/internal/value"
)

// The tgd kernel: stage 2 of the c-chase on interned IDs.
//
// The s-t tgd bodies read only the normalized source, so the phase
// shards the enumeration of every body's homomorphisms: the source store
// is frozen (all lazy structures built, reads mutation-free) and worker
// w enumerates shard w of the candidate range via logic.ForEachIDsPart,
// whose shards concatenate to exactly the unsharded enumeration order.
// One worker is shard 0 run inline; there is no other tgd pass.
//
// Every match becomes a firing vector: the IDs of the universal head
// variables, then of the interval, in the target interner. What the
// worker keeps depends on whether the tgd invents nulls:
//
//   - A tgd without existentials fires inside the worker: the head rows
//     are built from the vector and the literals, deduplicated against a
//     worker-private store, and kept when some row is new to the worker.
//     The merge inserts them in (tgd, worker-rank, shard) order, so a
//     record whose rows an earlier-ranked worker created inserts nothing
//     and does not fire.
//   - A tgd with existentials must consult global state per firing (the
//     extension check spans all prior firings, and null families are
//     numbered in firing order), so the worker keeps the vector, and the
//     merge checks the extension with logic.ExistsIDs and fires in rank
//     order.
//
// Head rows are built by one step, headRows, which the worker, the merge
// and ConcreteDelta share. Inputs below parallelCutoffFacts, and mappings
// without tgds, run one shard. The egd phase shards its scans the same
// way (see eparallel.go).

// parallelCutoffFacts is the input size below which a sharded
// enumeration ignores Options.Workers and runs one shard: freezing the
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

// tgdKernel is one run's tgd step: the compiled tgds, the target
// interner, the head literals interned in it, and which tgds have had
// their head checked against the target schema.
type tgdKernel struct {
	cm      *Compiled
	in      *value.Interner
	lits    [][]value.ID // per tgd, d.lits interned when d.plainLits
	checked []bool
}

func newTGDKernel(cm *Compiled, in *value.Interner) *tgdKernel {
	k := &tgdKernel{cm: cm, in: in, lits: make([][]value.ID, len(cm.tgds)), checked: make([]bool, len(cm.tgds))}
	for di := range cm.tgds {
		if d := &cm.tgds[di]; d.plainLits {
			k.lits[di] = in.InternAll(nil, d.lits)
		}
	}
	return k
}

// tgdStep is one goroutine's scratch for the kernel's per-match step.
type tgdStep struct {
	*tgdKernel
	vals  []value.Value
	nulls []value.ID
}

// appendVec appends the firing vector of match im of tgd d to dst. When
// the source interner src is not the target's, the vector is
// translated with one ResolveAll and one InternAll.
func (s *tgdStep) appendVec(dst []value.ID, d *compiledTGD, im *logic.IDMatch, src *value.Interner) ([]value.ID, error) {
	base := len(dst)
	for _, name := range d.vecVars {
		id, ok := im.ID(name)
		if !ok {
			return dst, temporalUnbound(d)
		}
		dst = append(dst, id)
	}
	if src != s.in {
		s.vals = src.ResolveAll(s.vals[:0], dst[base:])
		dst = s.in.InternAll(dst[:base], s.vals)
	}
	return dst, nil
}

// temporalUnbound reports a match that binds no interval to the temporal
// variable. Only the match of an empty body binds nothing; every other
// firing-vector variable occurs in the body.
func temporalUnbound(d *compiledTGD) error {
	return fmt.Errorf("chase: tgd %s: temporal variable unbound", d.d.Name)
}

// headRows appends to dst the stored head rows of one firing of tgd di —
// per head atom its data IDs, then the interval ID — built from the
// firing vector vec, one fresh null from gen per existential (annotated
// with the firing interval) and the literals. Unless every value is
// plain, each row is built the way instance.Insert builds it: fact.NewC
// re-annotates, Validate rejects, and the row is interned anew.
func (s *tgdStep) headRows(dst []value.ID, di int, vec []value.ID, gen *value.NullGen, stats *Stats) ([]value.ID, error) {
	d := &s.cm.tgds[di]
	nv := len(vec)
	s.vals = s.in.ResolveAll(s.vals[:0], vec)
	if !s.vals[nv-1].IsInterval() {
		return dst, temporalUnbound(d)
	}
	t := s.vals[nv-1].Iv
	if len(d.exist) > 0 {
		for range d.exist {
			s.vals = append(s.vals, gen.FreshAnn(t))
			stats.NullsCreated++
		}
		s.nulls = s.in.InternAll(s.nulls[:0], s.vals[nv:])
	}
	if d.plainLits && plainArgs(s.vals[:nv-1], t) {
		for _, c := range d.cols {
			switch {
			case c < 0:
				dst = append(dst, s.lits[di][-1-c])
			case c < nv:
				dst = append(dst, vec[c])
			default:
				dst = append(dst, s.nulls[c-nv])
			}
		}
		return dst, nil
	}
	cols := d.cols
	for _, atom := range d.head {
		n := len(atom.Terms) - 1
		args := make([]value.Value, n)
		for i, c := range cols[:n] {
			if c < 0 {
				args[i] = d.lits[-1-c]
			} else {
				args[i] = s.vals[c]
			}
		}
		cols = cols[n+1:]
		f := fact.NewC(atom.Rel, t, args...)
		if err := f.Validate(); err != nil {
			return dst, fmt.Errorf("chase: tgd %s: %w", d.d.Name, err)
		}
		dst = s.in.InternAll(dst, instance.ToTuple(f))
	}
	return dst, nil
}

// plainArgs reports that fact.NewC and Validate leave the data values
// vals of a firing at t as they are: t is valid, and each value is a
// constant, a labeled null or a null annotated with t.
func plainArgs(vals []value.Value, t interval.Interval) bool {
	if !t.Valid() {
		return false
	}
	for _, v := range vals {
		switch v.K {
		case value.Const, value.Null:
		case value.AnnNull:
			if v.Iv != t {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// insertHead inserts the head rows of one firing of d into st and
// returns how many were new.
func insertHead(st *storage.Store, d *compiledTGD, rows []value.ID) int {
	n := 0
	for _, atom := range d.head {
		w := len(atom.Terms)
		if st.InsertIDs(atom.Rel, rows[:w]) {
			n++
		}
		rows = rows[w:]
	}
	return n
}

// fire inserts the head rows of one firing of tgd di into tgt and, when
// any row is new, counts and traces the firing. A tgd's first firing
// checks its head against the target schema, as instance.Insert would.
func (k *tgdKernel) fire(tgt *instance.Concrete, di int, rows []value.ID, fires []int, opts *Options, stats *Stats) error {
	d := &k.cm.tgds[di]
	if !k.checked[di] {
		for _, atom := range d.head {
			if err := tgt.CheckRel(atom.Rel, len(atom.Terms)-1); err != nil {
				return fmt.Errorf("chase: tgd %s: %w", d.d.Name, err)
			}
		}
		k.checked[di] = true
	}
	added := insertHead(tgt.Store(), d, rows)
	if added == 0 {
		return nil
	}
	stats.FactsCreated += added
	stats.TGDFires++
	fires[di]++
	if opts.tracing() {
		t, _ := k.in.Resolve(rows[len(rows)-1]).Interval()
		opts.emit(EventTGDFire, d.d.Name, "fired at %v", t)
	}
	return nil
}

// shardOut is everything one worker produced, per tgd: the number of
// homomorphisms enumerated and a flat arena of records — firing vectors
// for a tgd with existentials, the head rows of each locally-new firing
// for one without.
type shardOut struct {
	homs []int
	recs [][]value.ID
	err  error
}

// tgdPhase is the tgd phase (stage 2): every shard enumerates, then the
// merge replays the shards in (tgd, worker-rank) order, which is the
// unsharded enumeration order, so the outcome — extension checks, null
// family ids, row numbering — does not depend on the worker count.
// fires[i] counts the firings of the i-th tgd. src must be frozen and tgt
// empty.
func tgdPhase(ctx context.Context, src, tgt *instance.Concrete, cm *Compiled, gen *value.NullGen, fires []int, opts *Options, stats *Stats) error {
	workers := opts.workers()
	if len(cm.tgds) == 0 || src.Len() < parallelCutoffFacts {
		workers = 1
	}
	stats.TGDWorkers = workers
	k := newTGDKernel(cm, tgt.Interner())
	outs := make([]shardOut, workers)
	fanOut(workers, func(w int) {
		outs[w] = k.enumerateShard(ctx, src, w, workers)
	})
	for w := range outs {
		if err := outs[w].err; err != nil {
			return err
		}
	}

	s := &tgdStep{tgdKernel: k}
	var buf []value.ID
	seen := 0
	for di := range cm.tgds {
		d := &cm.tgds[di]
		width := len(d.cols)
		if len(d.exist) > 0 {
			width = len(d.vecVars)
		}
		for w := range outs {
			stats.TGDHoms += outs[w].homs[di]
			recs := outs[w].recs[di]
			for ; len(recs) > 0; recs = recs[width:] {
				seen++
				if seen&ctxCheckMask == 0 {
					if err := ctxErr(ctx); err != nil {
						return err
					}
				}
				rows := recs[:width]
				if len(d.exist) > 0 {
					if logic.ExistsIDs(tgt.Store(), d.head, d.vecVars, rows) {
						continue // extension h' to φ+ ∧ ψ+ already exists
					}
					var err error
					if buf, err = s.headRows(buf[:0], di, rows, gen, stats); err != nil {
						return err
					}
					rows = buf
				}
				if err := k.fire(tgt, di, rows, fires, opts, stats); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// enumerateShard runs one worker: shard w of the homomorphism
// enumeration of every tgd body against the frozen normalized source,
// recorded as shardOut describes.
func (k *tgdKernel) enumerateShard(ctx context.Context, src *instance.Concrete, w, workers int) (out shardOut) {
	srcIn := src.Interner()
	out.homs = make([]int, len(k.cm.tgds))
	out.recs = make([][]value.ID, len(k.cm.tgds))
	priv := storage.NewStoreWith(k.in)
	s := &tgdStep{tgdKernel: k}
	var vec []value.ID
	seen := 0
	for di := range k.cm.tgds {
		d := &k.cm.tgds[di]
		if out.err = ctxErr(ctx); out.err != nil {
			return out
		}
		logic.ForEachIDsPart(src.Store(), d.body, nil, w, workers, func(im *logic.IDMatch) bool {
			out.homs[di]++
			seen++
			if seen&ctxCheckMask == 0 {
				if out.err = ctxErr(ctx); out.err != nil {
					return false
				}
			}
			if vec, out.err = s.appendVec(vec[:0], d, im, srcIn); out.err != nil {
				return false
			}
			recs := out.recs[di]
			if len(d.exist) > 0 {
				out.recs[di] = append(recs, vec...)
				return true
			}
			base := len(recs)
			if recs, out.err = s.headRows(recs, di, vec, nil, nil); out.err != nil {
				return false
			}
			if insertHead(priv, d, recs[base:]) == 0 {
				// An earlier match of this shard recorded identical rows,
				// and the merge's replay of that record covers this one.
				recs = recs[:base]
			}
			out.recs[di] = recs
			return true
		})
		if out.err != nil {
			return out
		}
	}
	return out
}
