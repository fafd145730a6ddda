package chase

import (
	"errors"
	"testing"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/normalize"
	"repro/internal/paperex"
	"repro/internal/value"
)

func TestFigure9ConcreteChase(t *testing.T) {
	// c-chase(Figure 4, M+ of Example 6) must produce Figure 9's five
	// facts: three with constant salaries, two with interval-annotated
	// nulls for Ada@[2012,2013) and Bob@[2013,2015).
	ic := paperex.Figure4()
	m := paperex.EmploymentMapping()
	jc, stats, err := Concrete(ic, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	iv, c, inf := paperex.Iv, paperex.C, paperex.Inf
	if jc.Len() != 5 {
		t.Fatalf("got %d facts, want 5:\n%s", jc.Len(), jc)
	}
	for _, want := range []fact.CFact{
		fact.NewC("Emp", iv(2013, 2014), c("Ada"), c("IBM"), c("18k")),
		fact.NewC("Emp", iv(2014, inf), c("Ada"), c("Google"), c("18k")),
		fact.NewC("Emp", iv(2015, 2018), c("Bob"), c("IBM"), c("13k")),
	} {
		if !jc.Contains(want) {
			t.Fatalf("missing %v in:\n%s", want, jc)
		}
	}
	// The two null facts, checked structurally (family ids are fresh).
	var nullFacts []fact.CFact
	for _, f := range jc.Facts() {
		if f.HasNulls() {
			nullFacts = append(nullFacts, f)
		}
	}
	if len(nullFacts) != 2 {
		t.Fatalf("want 2 null facts, got %v", nullFacts)
	}
	check := func(f fact.CFact, name, comp string, want interval.Interval) {
		t.Helper()
		if f.Args[0] != c(name) || f.Args[1] != c(comp) || f.T != want {
			t.Fatalf("unexpected null fact %v", f)
		}
		s := f.Args[2]
		if s.Kind() != value.AnnNull {
			t.Fatalf("salary of %v is not an annotated null", f)
		}
		if ann, _ := s.Interval(); ann != want {
			t.Fatalf("annotation %v disagrees with fact interval %v", ann, want)
		}
	}
	// Facts() is deterministic: Ada before Bob.
	check(nullFacts[0], "Ada", "IBM", iv(2012, 2013))
	check(nullFacts[1], "Bob", "IBM", iv(2013, 2015))
	if nullFacts[0].Args[2].ID == nullFacts[1].Args[2].ID {
		t.Fatal("the two unknown salaries must be distinct null families")
	}
	// Harness sanity: the run did normalize, fire tgds, and merge nulls.
	if stats.NormalizedSourceFacts != 9 {
		t.Fatalf("normalized source facts = %d, want 9 (Figure 5)", stats.NormalizedSourceFacts)
	}
	if stats.TGDFires != 8 || stats.NullsCreated != 5 || stats.EgdMerges != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFigure3AbstractChase(t *testing.T) {
	// The abstract chase result of Example 5 / Figure 3, checked at the
	// paper's sampled years.
	ic := paperex.Figure4()
	m := paperex.EmploymentMapping()
	ja, _, err := Abstract(ic.Abstract(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := paperex.C
	type wantFact struct {
		name, comp string
		salary     value.Value // zero Value means "some null"
	}
	tests := []struct {
		tp   interval.Time
		want []wantFact
	}{
		{2012, []wantFact{{"Ada", "IBM", value.Value{}}}},
		{2013, []wantFact{{"Ada", "IBM", c("18k")}, {"Bob", "IBM", value.Value{}}}},
		{2014, []wantFact{{"Ada", "Google", c("18k")}, {"Bob", "IBM", value.Value{}}}},
		{2015, []wantFact{{"Ada", "Google", c("18k")}, {"Bob", "IBM", c("13k")}}},
		{2018, []wantFact{{"Ada", "Google", c("18k")}}},
		{2011, nil},
	}
	for _, tt := range tests {
		snap := ja.Snapshot(tt.tp)
		if snap.Len() != len(tt.want) {
			t.Fatalf("snapshot %v = %s, want %d facts", tt.tp, snap, len(tt.want))
		}
		for _, w := range tt.want {
			found := false
			for _, f := range snap.Facts() {
				if f.Rel != "Emp" || f.Args[0] != c(w.name) || f.Args[1] != c(w.comp) {
					continue
				}
				if w.salary == (value.Value{}) {
					if f.Args[2].Kind() == value.Null {
						found = true
					}
				} else if f.Args[2] == w.salary {
					found = true
				}
			}
			if !found {
				t.Fatalf("snapshot %v missing %v: %s", tt.tp, w, snap)
			}
		}
	}
	// Distinct snapshots get distinct nulls (the chase produces fresh
	// nulls per snapshot): Bob's unknown salary at 2013 and 2014.
	n13 := ja.Snapshot(2013).Nulls()
	n14 := ja.Snapshot(2014).Nulls()
	if len(n13) != 1 || len(n14) != 1 || n13[0] == n14[0] {
		t.Fatalf("per-snapshot nulls not distinct: %v vs %v", n13, n14)
	}
}

func TestChaseFailureOnEgdClash(t *testing.T) {
	// Ada holds two different salaries while at IBM during overlapping
	// years: the egd equates 18k and 20k — no solution (Prop 4 part 2,
	// Theorem 19 part 2), on both views.
	m := paperex.EmploymentMapping()
	iv, c := paperex.Iv, paperex.C
	ic := instance.NewConcrete(m.Source)
	ic.MustInsert(fact.NewC("E", iv(2013, 2016), c("Ada"), c("IBM")))
	ic.MustInsert(fact.NewC("S", iv(2013, 2015), c("Ada"), c("18k")))
	ic.MustInsert(fact.NewC("S", iv(2014, 2016), c("Ada"), c("20k")))

	_, _, err := Concrete(ic, m, nil)
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("concrete chase error = %v, want ErrNoSolution", err)
	}
	var fe *FailError
	if !errors.As(err, &fe) || fe.V1 == fe.V2 {
		t.Fatalf("failure details missing: %v", err)
	}

	_, _, err = Abstract(ic.Abstract(), m, nil)
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("abstract chase error = %v, want ErrNoSolution", err)
	}
}

func TestNoFailureWhenOverlapMissing(t *testing.T) {
	// The same two salaries on disjoint intervals are consistent: the
	// snapshots never see both at once.
	m := paperex.EmploymentMapping()
	iv, c := paperex.Iv, paperex.C
	ic := instance.NewConcrete(m.Source)
	ic.MustInsert(fact.NewC("E", iv(2013, 2016), c("Ada"), c("IBM")))
	ic.MustInsert(fact.NewC("S", iv(2013, 2014), c("Ada"), c("18k")))
	ic.MustInsert(fact.NewC("S", iv(2014, 2016), c("Ada"), c("20k")))
	jc, _, err := Concrete(ic, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !jc.Contains(fact.NewC("Emp", iv(2013, 2014), c("Ada"), c("IBM"), c("18k"))) ||
		!jc.Contains(fact.NewC("Emp", iv(2014, 2016), c("Ada"), c("IBM"), c("20k"))) {
		t.Fatalf("expected both salaries on disjoint intervals:\n%s", jc)
	}
}

func TestNaiveStrategySameSemantics(t *testing.T) {
	// Smart and Naive normalization produce semantically equal solutions
	// (different fragmentations of the same abstract instance).
	ic := paperex.Figure4()
	m := paperex.EmploymentMapping()
	smart, _, err := Concrete(ic, m, &Options{Norm: normalize.StrategySmart})
	if err != nil {
		t.Fatal(err)
	}
	naive, _, err := Concrete(ic, m, &Options{Norm: normalize.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	// Constant parts coincide after coalescing; null families differ in
	// fragmentation, so compare snapshot structure instead of literals.
	a, b := smart.Abstract(), naive.Abstract()
	for _, tp := range instance.SamplePoints(a, b) {
		sa, sb := a.Snapshot(tp), b.Snapshot(tp)
		if sa.Len() != sb.Len() {
			t.Fatalf("snapshot sizes differ at %v: %s vs %s", tp, sa, sb)
		}
	}
}

func TestStepwiseEgdSameResult(t *testing.T) {
	ic := paperex.Figure4()
	m := paperex.EmploymentMapping()
	batch, _, err := Concrete(ic, m, &Options{Egd: EgdBatch})
	if err != nil {
		t.Fatal(err)
	}
	step, _, err := Concrete(ic, m, &Options{Egd: EgdStepwise})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Len() != step.Len() {
		t.Fatalf("batch %d facts vs stepwise %d:\n%s\nvs\n%s", batch.Len(), step.Len(), batch, step)
	}
}

func TestCoalesceOption(t *testing.T) {
	ic := paperex.Figure4()
	m := paperex.EmploymentMapping()
	jc, _, err := Concrete(ic, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Coalescing is the tdx facade's job; the chase's Figure 9 solution
	// is already coalesced, so coalescing keeps the same five facts.
	if !jc.IsCoalesced() {
		t.Fatalf("solution not coalesced:\n%s", jc)
	}
	if co := jc.Coalesce(); co.Len() != 5 {
		t.Fatalf("coalesced solution has %d facts:\n%s", co.Len(), co)
	}
}

func TestEmptySourceAndNoEgds(t *testing.T) {
	m := paperex.EmploymentMapping()
	empty := instance.NewConcrete(m.Source)
	jc, _, err := Concrete(empty, m, nil)
	if err != nil || jc.Len() != 0 {
		t.Fatalf("empty chase: %v / %d facts", err, jc.Len())
	}
	// A mapping without egds skips the egd phase entirely.
	m2 := paperex.EmploymentMapping()
	m2.EGDs = nil
	jc2, stats, err := Concrete(paperex.Figure4(), m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EgdRounds != 0 || jc2.Len() != 8 {
		t.Fatalf("no-egd chase: rounds=%d facts=%d", stats.EgdRounds, jc2.Len())
	}
}

func TestChaseDeterminism(t *testing.T) {
	m := paperex.EmploymentMapping()
	a, _, err := Concrete(paperex.Figure4(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Concrete(paperex.Figure4(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("chase not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestSnapshotChaseStandalone(t *testing.T) {
	// Chase of the single snapshot db2013 of Figure 1: Ada's salary is
	// known (18k), Bob's is a fresh null.
	m := paperex.EmploymentMapping()
	src := instance.NewSnapshot()
	c := paperex.C
	src.Insert(fact.New("E", c("Ada"), c("IBM")))
	src.Insert(fact.New("E", c("Bob"), c("IBM")))
	src.Insert(fact.New("S", c("Ada"), c("18k")))
	cm, err := CompileMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	var g value.NullGen
	tgt, stats, err := snapshot(src, cm, g.FreshNull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Len() != 2 {
		t.Fatalf("snapshot chase result: %s", tgt)
	}
	if !tgt.Contains(fact.New("Emp", c("Ada"), c("IBM"), c("18k"))) {
		t.Fatalf("Ada's salary not resolved: %s", tgt)
	}
	if len(tgt.Nulls()) != 1 {
		t.Fatalf("want one null for Bob, got %v", tgt.Nulls())
	}
	if stats.EgdMerges != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestAbstractChaseRejectsIncompleteSource(t *testing.T) {
	var g value.NullGen
	ic := instance.NewConcrete(nil)
	ic.MustInsert(fact.NewC("E", paperex.Iv(1, 3), paperex.C("Ada"), g.FreshAnn(paperex.Iv(1, 3))))
	m := paperex.EmploymentMapping()
	if _, _, err := Abstract(ic.Abstract(), m, nil); err == nil {
		t.Fatal("incomplete source accepted by abstract chase")
	}
}
