package chase

import (
	"context"
	"fmt"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/value"
)

// The tgd kernel: stage 2 of the c-chase on interned IDs.
//
// The s-t tgd bodies read only the normalized source, so one pass over
// the homomorphisms of every body reaches the tgd fixpoint. Each match
// becomes a firing vector — the IDs of the universal head variables,
// then of the interval — and fires as it is enumerated, in (tgd,
// enumeration) order. The target interns into the run's interner, which
// extends the source's, so the vector is the match's source IDs as they
// are:
//
//   - A tgd without existentials inserts its head rows; the target's
//     dedup drops rows an earlier firing created, and a firing that adds
//     no row does not count.
//   - A tgd with existentials first checks the extension with
//     logic.ExistsIDs against everything fired so far, and numbers its
//     null families in firing order.
//
// Head rows are built by one step, headRows, which tgdPhase and
// ConcreteDelta share.

// tgdKernel is one run's tgd step: the compiled tgds, the target
// interner, the head literals interned in it, which tgds have had their
// head checked against the target schema, and the per-match scratch.
type tgdKernel struct {
	cm      *Compiled
	in      *value.Interner
	lits    [][]value.ID // per tgd, d.lits interned when d.plainLits
	checked []bool
	vals    []value.Value
	nulls   []value.ID
}

// newTGDKernel returns the kernel firing matches over src into tgt. It
// checks once that tgt's interner extends src's: a firing vector is
// taken from src's rows and written to tgt's by ID.
func newTGDKernel(cm *Compiled, src, tgt *instance.Concrete) *tgdKernel {
	in := tgt.Interner()
	if !in.Extends(src.Interner()) {
		panic("chase: the target's interner does not extend the source's; a run interns into one overlay on its source's interner")
	}
	k := &tgdKernel{cm: cm, in: in, lits: make([][]value.ID, len(cm.tgds)), checked: make([]bool, len(cm.tgds))}
	for di := range cm.tgds {
		if d := &cm.tgds[di]; d.plainLits {
			k.lits[di] = in.InternAll(nil, d.lits)
		}
	}
	return k
}

// appendVec appends the firing vector of match im of tgd d to dst.
func appendVec(dst []value.ID, d *compiledTGD, im *logic.IDMatch) ([]value.ID, error) {
	for _, name := range d.vecVars {
		id, ok := im.ID(name)
		if !ok {
			return dst, temporalUnbound(d)
		}
		dst = append(dst, id)
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
func (k *tgdKernel) headRows(dst []value.ID, di int, vec []value.ID, gen *value.NullGen, stats *Stats) ([]value.ID, error) {
	d := &k.cm.tgds[di]
	nv := len(vec)
	k.vals = k.in.ResolveAll(k.vals[:0], vec)
	if !k.vals[nv-1].IsInterval() {
		return dst, temporalUnbound(d)
	}
	t := k.vals[nv-1].Iv
	if len(d.exist) > 0 {
		for range d.exist {
			k.vals = append(k.vals, gen.FreshAnn(t))
			stats.NullsCreated++
		}
		k.nulls = k.in.InternAll(k.nulls[:0], k.vals[nv:])
	}
	if d.plainLits && plainArgs(k.vals[:nv-1], t) {
		for _, c := range d.cols {
			switch {
			case c < 0:
				dst = append(dst, k.lits[di][-1-c])
			case c < nv:
				dst = append(dst, vec[c])
			default:
				dst = append(dst, k.nulls[c-nv])
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
				args[i] = k.vals[c]
			}
		}
		cols = cols[n+1:]
		f := fact.NewC(atom.Rel, t, args...)
		if err := f.Validate(); err != nil {
			return dst, fmt.Errorf("chase: tgd %s: %w", d.d.Name, err)
		}
		dst = k.in.InternAll(dst, instance.ToTuple(f))
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
	added, rest := 0, rows
	for _, atom := range d.head {
		w := len(atom.Terms)
		if tgt.Store().InsertIDs(atom.Rel, rest[:w]) {
			added++
		}
		rest = rest[w:]
	}
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

// tgdPhase is the tgd phase (stage 2): it fires every match of every
// tgd body over src into tgt as the match is enumerated. fires[i] counts
// the firings of the i-th tgd. src is only read; tgt must start empty.
func tgdPhase(ctx context.Context, src, tgt *instance.Concrete, cm *Compiled, gen *value.NullGen, fires []int, opts *Options, stats *Stats) error {
	stats.TGDWorkers = 1
	k := newTGDKernel(cm, src, tgt)
	var vec, rows []value.ID
	var err error
	seen := 0
	for di := range cm.tgds {
		d := &cm.tgds[di]
		if err = ctxErr(ctx); err != nil {
			return err
		}
		logic.ForEachIDs(src.Store(), d.body, nil, func(im *logic.IDMatch) bool {
			stats.TGDHoms++
			seen++
			if seen&ctxCheckMask == 0 {
				if err = ctxErr(ctx); err != nil {
					return false
				}
			}
			if vec, err = appendVec(vec[:0], d, im); err != nil {
				return false
			}
			if len(d.exist) > 0 && logic.ExistsIDs(tgt.Store(), d.head, d.vecVars, vec) {
				return true // extension h' to φ+ ∧ ψ+ already exists
			}
			if rows, err = k.headRows(rows[:0], di, vec, gen, stats); err != nil {
				return false
			}
			err = k.fire(tgt, di, rows, fires, opts, stats)
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
