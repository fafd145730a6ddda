package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestConcreteDeltaEquivalence is the adjudicator of the incremental
// chase: across random mappings, random sources and random base/delta
// splits, ConcreteDelta over a retained base run must produce
// byte-identical output (facts, null family ids — String renders both)
// to a full chase over the combined source, whether it takes the fast
// path or falls back. It also asserts the suite exercises the fast path
// at all, so a regression that silently falls back on everything cannot
// pass.
func TestConcreteDeltaEquivalence(t *testing.T) {
	type trial struct {
		name              string
		m                 *dependency.Mapping
		base, delta, full *instance.Concrete
		fast              bool // must take the fast path
	}
	var trials []trial
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := workload.RandomMapping(r)
		nFacts := 40 + r.Intn(200)
		all := workload.RandomInstanceFor(r, m, nFacts)
		cut := all.Len() - (1 + r.Intn(7))
		if cut < 1 {
			cut = 1
		}
		base, delta, full := splitSource(m, all, func(i int, _ fact.CFact) bool { return i >= cut })
		trials = append(trials, trial{fmt.Sprintf("seed %d", seed), m, base, delta, full, false})
	}
	// New hires: the delta holds every fact of 20 persons, so its
	// incremental source normalization, tgd firing and egd rounds all do
	// real work.
	m := paperex.EmploymentMapping()
	emp := workload.Employment(workload.EmploymentConfig{Seed: 3, Persons: 120, JobsPerPerson: 3, SalaryCoverage: 0.7, Span: 100})
	staff := make(map[value.Value]bool)
	for p := 0; p < 20; p++ {
		staff[paperex.C(fmt.Sprintf("p%d", p))] = true
	}
	base, delta, full := splitSource(m, emp, func(_ int, f fact.CFact) bool { return !staff[f.Args[0]] })
	trials = append(trials, trial{"new hires", m, base, delta, full, true})

	fastPaths := 0
	ran := 0
	for _, tr := range trials {
		cm, err := CompileMapping(tr.m)
		if err != nil {
			t.Fatalf("%s: compile: %v", tr.name, err)
		}
		wantOut, _, _, wantErr := ConcreteCompiled(tr.full, cm, nil)

		_, _, baseState, baseErr := ConcreteCompiled(tr.base, cm, nil)
		if baseErr != nil {
			// The base alone has no solution; the combined source cannot
			// have one either (its egd violations persist).
			if wantErr == nil {
				t.Fatalf("%s: base chase failed (%v) but full chase succeeded", tr.name, baseErr)
			}
			continue
		}
		gotOut, gotStats, nextBase, gotErr := ConcreteDelta(baseState, tr.delta, nil)
		ran++
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: delta err = %v, full err = %v", tr.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !gotStats.FallbackFullChase {
			fastPaths++
		}
		if tr.fast && (gotStats.FallbackFullChase || gotStats.EgdRounds == 0) {
			t.Fatalf("%s: want the fast path with egd rounds, got %+v", tr.name, gotStats)
		}
		if got, want := gotOut.String(), wantOut.String(); got != want {
			t.Fatalf("%s (fallback=%v): delta solution diverges from full chase\n--- delta ---\n%s\n--- full ---\n%s",
				tr.name, gotStats.FallbackFullChase, got, want)
		}
		if nextBase == nil {
			t.Fatalf("%s: delta run returned no base state", tr.name)
		}
		if got, want := nextBase.Solution().String(), wantOut.String(); got != want {
			t.Fatalf("%s: retained solution diverges from returned one", tr.name)
		}
		// Snapshots must agree too (semantic identity on top of the
		// syntactic one).
		for _, tp := range instance.SamplePoints(gotOut.Abstract(), wantOut.Abstract()) {
			if !gotOut.Snapshot(tp).Equal(wantOut.Snapshot(tp)) {
				t.Fatalf("%s: snapshot at %v diverges", tr.name, tp)
			}
		}
	}
	if ran == 0 {
		t.Fatal("no trial ran a delta chase")
	}
	if fastPaths == 0 {
		t.Fatal("every trial fell back to a full re-chase; the incremental path was never exercised")
	}
	t.Logf("delta equivalence: %d trials, %d fast paths", ran, fastPaths)
}

// splitSource splits the facts of all into a base and a delta instance
// and builds full, the base facts followed by the delta facts: the
// combined source whose full chase ConcreteDelta must reproduce.
func splitSource(m *dependency.Mapping, all *instance.Concrete, inDelta func(i int, f fact.CFact) bool) (base, delta, full *instance.Concrete) {
	base = instance.NewConcreteWith(m.Source, all.Interner())
	delta = instance.NewConcreteWith(m.Source, all.Interner())
	full = instance.NewConcreteWith(m.Source, all.Interner())
	i := 0
	all.EachFact(func(f fact.CFact) bool {
		if inDelta(i, f) {
			delta.MustInsert(f)
		} else {
			base.MustInsert(f)
		}
		i++
		return true
	})
	for _, part := range []*instance.Concrete{base, delta} {
		part.EachFact(func(f fact.CFact) bool {
			full.MustInsert(f)
			return true
		})
	}
	return base, delta, full
}

// TestConcreteDeltaBaseRowBudget drives delta egd merges into retained
// base rows. The base run invents, per key k, nulls v and w with
// P(k, v) and Q(v, w); the delta's B(k, c) and C(c, d) pin v = c in one
// egd round, which rewrites the base rows P(k, v) and Q(v, w), and then
// w = d in the next, which rewrites Q(c, w) again: three base-row
// rewrites per key. Under deltaBaseRowLimit the run stays on the fast
// path; past it, it re-chases from scratch. Either way the solution is
// the full re-chase's.
func TestConcreteDeltaBaseRowBudget(t *testing.T) {
	k, v, w, c, d := logic.Var("k"), logic.Var("v"), logic.Var("w"), logic.Var("c"), logic.Var("d")
	m := &dependency.Mapping{
		Source: schema.MustNew(schema.MustRelation("A", "k"), schema.MustRelation("B", "k", "v"), schema.MustRelation("C", "v", "w")),
		Target: schema.MustNew(schema.MustRelation("P", "k", "v"), schema.MustRelation("Q", "v", "w")),
		TGDs: []dependency.TGD{
			{Name: "invent", Body: logic.Conjunction{logic.NewAtom("A", k)},
				Head: logic.Conjunction{logic.NewAtom("P", k, v), logic.NewAtom("Q", v, w)}},
			{Name: "pin-p", Body: logic.Conjunction{logic.NewAtom("B", k, v)}, Head: logic.Conjunction{logic.NewAtom("P", k, v)}},
			{Name: "pin-q", Body: logic.Conjunction{logic.NewAtom("C", v, w)}, Head: logic.Conjunction{logic.NewAtom("Q", v, w)}},
		},
		EGDs: []dependency.EGD{
			{Name: "p-key", Body: logic.Conjunction{logic.NewAtom("P", k, c), logic.NewAtom("P", k, d)}, X1: "c", X2: "d"},
			{Name: "q-key", Body: logic.Conjunction{logic.NewAtom("Q", v, c), logic.NewAtom("Q", v, d)}, X1: "c", X2: "d"},
		},
	}
	cm, err := CompileMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	iv := interval.MustNew(0, 10)
	for _, keys := range []int{20, 100} {
		all := instance.NewConcrete(m.Source)
		for i := 0; i < keys; i++ {
			all.MustInsert(fact.NewC("A", iv, paperex.C(fmt.Sprintf("k%d", i))))
		}
		for i := 0; i < keys; i++ {
			all.MustInsert(fact.NewC("B", iv, paperex.C(fmt.Sprintf("k%d", i)), paperex.C(fmt.Sprintf("c%d", i))))
			all.MustInsert(fact.NewC("C", iv, paperex.C(fmt.Sprintf("c%d", i)), paperex.C(fmt.Sprintf("d%d", i))))
		}
		base, delta, full := splitSource(m, all, func(_ int, f fact.CFact) bool { return f.Rel != "A" })
		want, _, _, err := ConcreteCompiled(full, cm, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, st, err := ConcreteCompiled(base, cm, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, _, err := ConcreteDelta(st, delta, nil)
		if err != nil {
			t.Fatal(err)
		}
		if over := 3*keys > deltaBaseRowLimit; stats.FallbackFullChase != over {
			t.Fatalf("keys=%d: FallbackFullChase = %v, want %v (%+v)", keys, stats.FallbackFullChase, over, stats)
		}
		if !stats.FallbackFullChase && stats.BaseRowsRewritten != 3*keys {
			t.Fatalf("keys=%d: BaseRowsRewritten = %d, want %d", keys, stats.BaseRowsRewritten, 3*keys)
		}
		if got.String() != want.String() {
			t.Fatalf("keys=%d: delta solution diverges from full chase\n--- delta ---\n%s\n--- full ---\n%s", keys, got, want)
		}
	}
}

// TestConcreteDeltaChains applies two deltas in sequence and compares
// against one full chase over everything: the BaseState returned by a
// delta run must itself be a valid base for the next.
func TestConcreteDeltaChains(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := workload.RandomMapping(r)
		all := workload.RandomInstanceFor(r, m, 60+r.Intn(100))
		n := all.Len()
		cut1, cut2 := n-8, n-4
		if cut1 < 1 {
			continue
		}
		ics := make([]*instance.Concrete, 4) // base, delta1, delta2, full
		for i := range ics {
			ics[i] = instance.NewConcreteWith(m.Source, all.Interner())
		}
		i := 0
		all.EachFact(func(f fact.CFact) bool {
			switch {
			case i < cut1:
				ics[0].MustInsert(f)
			case i < cut2:
				ics[1].MustInsert(f)
			default:
				ics[2].MustInsert(f)
			}
			ics[3].MustInsert(f)
			i++
			return true
		})
		cm, err := CompileMapping(m)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		wantOut, _, _, wantErr := ConcreteCompiled(ics[3], cm, nil)
		_, _, st0, err0 := ConcreteCompiled(ics[0], cm, nil)
		if err0 != nil {
			if wantErr == nil {
				t.Fatalf("seed %d: base failed but full succeeded", seed)
			}
			continue
		}
		_, _, st1, err1 := ConcreteDelta(st0, ics[1], nil)
		if err1 != nil {
			if wantErr == nil {
				t.Fatalf("seed %d: first delta failed (%v) but full succeeded", seed, err1)
			}
			continue
		}
		got, _, _, err2 := ConcreteDelta(st1, ics[2], nil)
		if (err2 == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: second delta err = %v, full err = %v", seed, err2, wantErr)
		}
		if err2 != nil {
			continue
		}
		if got.String() != wantOut.String() {
			t.Fatalf("seed %d: chained deltas diverge from full chase\n--- chained ---\n%s\n--- full ---\n%s",
				seed, got.String(), wantOut.String())
		}
	}
}

// TestConcreteDeltaEmpty pins the no-op contract: a delta containing
// only already-known facts returns the retained solution unchanged.
func TestConcreteDeltaEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := workload.RandomMapping(r)
	ic := workload.RandomInstanceFor(r, m, 50)
	cm, err := CompileMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	out, _, st, err := ConcreteCompiled(ic, cm, nil)
	if err != nil {
		t.Skipf("base chase failed: %v", err)
	}
	dup := instance.NewConcreteWith(m.Source, ic.Interner())
	ic.EachFact(func(f fact.CFact) bool {
		dup.MustInsert(f)
		return true
	})
	got, stats, next, err := ConcreteDelta(st, dup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaFacts != 0 || stats.FallbackFullChase {
		t.Fatalf("duplicate delta counted as new: %+v", stats)
	}
	if got != out {
		t.Fatal("no-op delta did not return the retained solution")
	}
	if next != st {
		t.Fatal("no-op delta did not return the retained base state")
	}
}
