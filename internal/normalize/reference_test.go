package normalize

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// The reference normalizer: Algorithm 1 and the egd-phase fixpoint
// without their shortcuts. referenceMatchSets keeps every Δ, one-fact
// sets included; referenceFragmentSets copies every row into a new
// instance; referenceForEgdPhase compares each pass's result with its
// input by Concrete.Equal. TestSmartMatchesReference holds Smart and
// ForEgdPhaseCtx to these.

// referenceMatchSets enumerates, per Definition 10 / Algorithm 1 line 3,
// the sets Δ = {f1, ..., fm} ⊆ Ic that are the image of some
// homomorphism from a conjunction in N(Φ+) and whose intervals have a
// non-empty common intersection. Duplicate sets are returned once.
func referenceMatchSets(ctx context.Context, ic *instance.Concrete, phis []logic.Conjunction) ([][]factRef, error) {
	st := ic.Store()
	c := newMatchCollector(st)
	var out [][]factRef
	var stepErr error
	for _, phi := range phis {
		phi = phi.RenameTemporal(dependency.TemporalVar)
		if stepErr = ctxErr(ctx); stepErr != nil {
			return nil, stepErr
		}
		logic.ForEachIDs(st, phi, nil, func(m *logic.IDMatch) bool {
			if stepErr = c.tick(ctx); stepErr != nil {
				return false
			}
			set := c.rows(m)
			if !intersects(&c.intervalReader, set) {
				return true // empty intersection: nothing to fragment
			}
			if kept, ok := c.keep(set); ok {
				out = append(out, kept)
			}
			return true
		})
		if stepErr != nil {
			return nil, stepErr
		}
	}
	return out, nil
}

// intersects reports whether the intervals of set's facts share a time
// point.
func intersects(ir *intervalReader, set []factRef) bool {
	acc, ok := interval.Interval{End: interval.Infinity}, true
	for _, r := range set {
		if acc, ok = acc.Intersect(ir.interval(r)); !ok {
			return false
		}
	}
	return true
}

// referenceFragmentSets is the second half of Algorithm 1: merge
// overlapping sets and fragment the member facts on their merged
// component's endpoint partition, copying every other row by its
// interned row. It also reports the number of merged components.
func referenceFragmentSets(ctx context.Context, ic *instance.Concrete, sets [][]factRef) (*instance.Concrete, int, error) {
	if len(sets) == 0 {
		return ic.Clone(), 0, nil
	}
	cutsOf, components := componentCuts(ic.Store(), sets)
	out := instance.NewConcreteWith(ic.Schema(), ic.Interner())
	for _, rel := range ic.Relations() {
		if err := ctxErr(ctx); err != nil {
			return nil, 0, err
		}
		r := ic.Store().Rel(rel)
		r.EachLive(func(row int) bool {
			cuts, inSet := cutsOf[factRef{rel, row}]
			if !inSet || !splits(instance.IntervalAt(r, row), cuts) {
				copyRow(out, ic, rel, row)
				return true
			}
			for _, fr := range ic.FactAt(rel, row).Fragment(cuts) {
				out.MustInsert(fr)
			}
			return true
		})
	}
	return out, components, nil
}

// referenceSmart is Algorithm 1 through the reference pair: always a new
// instance.
func referenceSmart(ic *instance.Concrete, phis []logic.Conjunction) *instance.Concrete {
	ctx := context.Background()
	sets, _ := referenceMatchSets(ctx, ic, phis)
	out, _, _ := referenceFragmentSets(ctx, ic, sets)
	return out
}

// referenceForEgdPhase iterates reference normalization and family
// synchronization to their joint fixpoint, comparing every pass's result
// with its input fact by fact.
func referenceForEgdPhase(c *instance.Concrete, phis []logic.Conjunction) *instance.Concrete {
	ctx := context.Background()
	cur := c
	for {
		sets, _ := referenceMatchSets(ctx, cur, phis)
		smart, _, _ := referenceFragmentSets(ctx, cur, sets)
		next, _ := syncFamiliesCtx(ctx, smart)
		if next.Equal(cur) {
			return cur
		}
		cur = next
	}
}

// factSeq renders c's facts in EachFact order: relation by relation,
// live rows ascending.
func factSeq(c *instance.Concrete) []string {
	var out []string
	c.EachFact(func(f fact.CFact) bool {
		out = append(out, f.String())
		return true
	})
	return out
}

// randomTarget builds a target-shaped instance for m's egd bodies: the
// random facts RandomInstanceFor draws over m.Target, with about one last
// argument in three replaced by an annotated null from a pool of three
// families, annotated with its fact's interval, so family
// synchronization has work to do.
func randomTarget(r *rand.Rand, m *dependency.Mapping, n int) *instance.Concrete {
	consts := workload.RandomInstanceFor(r, &dependency.Mapping{Source: m.Target}, n)
	out := instance.NewConcrete(m.Target)
	consts.EachFact(func(f fact.CFact) bool {
		args := slices.Clone(f.Args)
		if r.Intn(3) == 0 {
			args[len(args)-1] = value.NewAnnNull(uint64(1+r.Intn(3)), f.T)
		}
		out.MustInsert(fact.NewC(f.Rel, f.T, args...))
		return true
	})
	return out
}

// withDeadRows returns a clone of ic with the constant b rewritten to a
// in place, so rows that collapse into an existing row stay allocated
// but dead.
func withDeadRows(ic *instance.Concrete) *instance.Concrete {
	out := ic.Clone()
	a, okA := out.Interner().Lookup(paperex.C("a"))
	b, okB := out.Interner().Lookup(paperex.C("b"))
	if okA && okB {
		out.Store().SubstituteIDs([]value.ID{b}, func(id value.ID) value.ID {
			if id == b {
				return a
			}
			return id
		})
	}
	return out
}

// normCase is one input of the differential test: an instance and the
// conjunctions it is normalized against.
type normCase struct {
	name string
	ic   *instance.Concrete
	phis []logic.Conjunction
}

// referenceCases lists the paper's Figures 4 and 7, the Theorem 13
// shapes, and the tgd bodies (over a 300-fact source) and egd bodies
// (over a 300-fact target with annotated nulls) of 50 random mappings.
func referenceCases() []normCase {
	emp := paperex.EmploymentMapping()
	cs := []normCase{
		{"figure4/sigma2", paperex.Figure4(), []logic.Conjunction{paperex.Sigma2Body()}},
		{"figure4/tgds", paperex.Figure4(), emp.TGDBodies()},
		{"figure7/example14", paperex.Figure7(), paperex.Example14Conjunctions()},
		{"staircase", workload.Staircase(12), workload.StaircasePhi()},
		{"nested", workload.Nested(12), workload.StaircasePhi()},
		{"disjoint-runs", workload.DisjointRuns(32, 4), workload.StaircasePhi()},
	}
	r := rand.New(rand.NewSource(3))
	cs = append(cs, normCase{"employment/egds", randomTarget(r, emp, 300), emp.EGDBodies()})
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := workload.RandomMapping(r)
		cs = append(cs,
			normCase{fmt.Sprintf("rand/seed=%d/tgds", seed), workload.RandomInstanceFor(r, m, 300), m.TGDBodies()},
			normCase{fmt.Sprintf("rand/seed=%d/egds", seed), randomTarget(r, m, 300), m.EGDBodies()})
	}
	return cs
}

// TestSmartMatchesReference holds Smart and ForEgdPhaseCtx to the
// reference normalizer on every case, unfrozen and frozen, and again
// with dead rows where rewriting b to a collapses some: the same facts
// in the same per-relation row order. Smart returns its input exactly
// when the input is frozen and the reference fragmented nothing;
// ForEgdPhaseCtx returns its input exactly when referenceForEgdPhase
// does. The test runs on one goroutine, so under the race detector only
// every fifth random mapping runs.
func TestSmartMatchesReference(t *testing.T) {
	for i, c := range referenceCases() {
		if raceEnabled && strings.HasPrefix(c.name, "rand/") && i%5 != 0 {
			continue
		}
		for _, dead := range []bool{false, true} {
			base := c.ic
			if dead {
				if base = withDeadRows(c.ic); base.Len() == c.ic.Len() {
					continue // nothing collapsed
				}
			}
			want := referenceSmart(base, c.phis)
			wantEgd := referenceForEgdPhase(base, c.phis)
			for _, frozen := range []bool{false, true} {
				name := fmt.Sprintf("%s/dead=%t/frozen=%t", c.name, dead, frozen)
				ic := base.Clone() // the same physical layout, dead rows included
				if frozen {
					ic.Freeze()
				}
				got := Smart(ic, c.phis)
				if !slices.Equal(factSeq(got), factSeq(want)) {
					t.Fatalf("%s: Smart differs from the reference:\ngot  %v\nwant %v", name, factSeq(got), factSeq(want))
				}
				if settled := frozen && want.Equal(ic); (got == ic) != settled {
					t.Fatalf("%s: Smart returned its input = %v, want %v", name, got == ic, settled)
				}
				gotEgd, err := ForEgdPhaseCtx(context.Background(), ic, c.phis, StrategySmart)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(factSeq(gotEgd), factSeq(wantEgd)) {
					t.Fatalf("%s: ForEgdPhaseCtx differs from the reference:\ngot  %v\nwant %v", name, factSeq(gotEgd), factSeq(wantEgd))
				}
				if (gotEgd == ic) != (wantEgd == base) {
					t.Fatalf("%s: ForEgdPhaseCtx returned its input = %v, the reference %v", name, gotEgd == ic, wantEgd == base)
				}
			}
		}
	}
}

// TestSmartSettledAllocs: Smart on a frozen instance under a one-atom
// body enumerates nothing and copies nothing, so its allocations do not
// grow with the instance.
func TestSmartSettledAllocs(t *testing.T) {
	ic := instance.NewConcrete(nil)
	for i := 0; i < 5000; i++ {
		ic.MustInsert(fact.NewC("E", paperex.Iv(interval.Time(i%50), interval.Time(i%50+3)),
			paperex.C(fmt.Sprint("p", i)), paperex.C("co")))
	}
	ic.Freeze()
	phis := []logic.Conjunction{{logic.NewAtom("E", logic.Var("n"), logic.Var("c"), logic.Var(dependency.TemporalVar))}}
	allocs := testing.AllocsPerRun(20, func() {
		if Smart(ic, phis) != ic {
			t.Fatal("Smart copied a frozen instance it does not fragment")
		}
	})
	if allocs > 16 {
		t.Fatalf("Smart on a settled 5000-fact instance: %v allocs, want at most 16", allocs)
	}
}

// appendMatch appends a match's witness rows (atom i's is a row of its
// relation) and bindings to dst.
func appendMatch(dst []uint64, m *logic.IDMatch, vars []string) []uint64 {
	for _, w := range m.Rows {
		dst = append(dst, uint64(w.Row))
	}
	for _, v := range vars {
		id, _ := m.ID(v)
		dst = append(dst, uint64(id))
	}
	return dst
}

// TestOverlapEnumerationMatchesReference holds logic's overlap entries to
// their definition on every reference case, with and without dead rows:
// ForEachIDsOverlapping yields exactly the ForEachIDs matches whose
// witness intervals have a non-empty common intersection, and
// ForEachIDsDeltaOverlapping exactly the ForEachIDsDelta matches so
// filtered, over a random third of the rows as delta — in the same
// order, with the same rows, bindings and stages. Every renamed
// conjunction is checked, one-atom ones included. Under the race
// detector only every fifth random mapping runs.
func TestOverlapEnumerationMatchesReference(t *testing.T) {
	filtered, deltaFiltered := 0, 0
	for i, c := range referenceCases() {
		if raceEnabled && strings.HasPrefix(c.name, "rand/") && i%5 != 0 {
			continue
		}
		r := rand.New(rand.NewSource(int64(i)))
		for _, ic := range []*instance.Concrete{c.ic, withDeadRows(c.ic)} {
			st := ic.Store()
			ir := &intervalReader{st: st}
			var set []factRef
			intersecting := func(m *logic.IDMatch) bool {
				set = set[:0]
				for _, w := range m.Rows {
					set = append(set, factRef{w.Rel, w.Row})
				}
				return intersects(ir, set)
			}
			delta := logic.NewDeltaSet()
			st.EachLive(func(rel *storage.Rel, row int) bool {
				if r.Intn(3) == 0 {
					delta.Add(rel.Name(), row)
				}
				return true
			})
			for _, phi := range c.phis {
				phi = phi.RenameTemporal(dependency.TemporalVar)
				vars := phi.Vars()
				var want, got []uint64
				all, kept, survived := 0, 0, 0
				logic.ForEachIDs(st, phi, nil, func(m *logic.IDMatch) bool {
					all++
					if intersecting(m) {
						kept++
						want = appendMatch(want, m, vars)
					}
					return true
				})
				logic.ForEachIDsOverlapping(st, phi, func(m *logic.IDMatch) bool {
					survived++
					got = appendMatch(got, m, vars)
					return true
				}, nil)
				if survived != kept || !slices.Equal(got, want) {
					t.Fatalf("%s: %v: ForEachIDsOverlapping differs from the filtered ForEachIDs (%d matches, want %d)", c.name, phi, survived, kept)
				}
				filtered += all - kept

				want, got = want[:0], got[:0]
				all, kept, survived = 0, 0, 0
				logic.ForEachIDsDelta(st, phi, delta, func(stage int, m *logic.IDMatch) bool {
					all++
					if intersecting(m) {
						kept++
						want = appendMatch(append(want, uint64(stage)), m, vars)
					}
					return true
				})
				logic.ForEachIDsDeltaOverlapping(st, phi, delta, func(stage int, m *logic.IDMatch) bool {
					survived++
					got = appendMatch(append(got, uint64(stage)), m, vars)
					return true
				}, nil)
				if survived != kept || !slices.Equal(got, want) {
					t.Fatalf("%s: %v: ForEachIDsDeltaOverlapping differs from the filtered ForEachIDsDelta (%d matches, want %d)", c.name, phi, survived, kept)
				}
				deltaFiltered += all - kept
			}
		}
	}
	if filtered == 0 || deltaFiltered == 0 {
		t.Fatalf("the cases filtered %d full and %d delta matches: no pruning was exercised", filtered, deltaFiltered)
	}
}
