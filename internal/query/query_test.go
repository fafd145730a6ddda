package query

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/value"
	"repro/internal/workload"
)

// empQuery returns q(n, s) :- Emp(n, c, s): who earns what, when.
func empQuery(t *testing.T) UCQ {
	t.Helper()
	q := CQ{
		Name: "q",
		Head: []string{"n", "s"},
		Body: logic.Conjunction{logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s"))},
	}
	u, err := NewUCQ("q", q)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// naiveEval is NaiveEval under a context that never cancels.
func naiveEval(t *testing.T, u UCQ, jc *instance.Concrete) *instance.Concrete {
	t.Helper()
	out, err := NaiveEval(context.Background(), u, jc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func chaseFigure4(t *testing.T) *instance.Concrete {
	t.Helper()
	jc, _, err := chase.Concrete(paperex.Figure4(), paperex.EmploymentMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return jc
}

func TestValidation(t *testing.T) {
	m := paperex.EmploymentMapping()
	good := CQ{Name: "q", Head: []string{"n"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s"))}}
	if err := good.Validate(m.Target); err != nil {
		t.Fatal(err)
	}
	unsafe := CQ{Name: "q", Head: []string{"zz"}, Body: good.Body}
	if unsafe.Validate(m.Target) == nil {
		t.Fatal("unsafe head variable accepted")
	}
	badRel := CQ{Name: "q", Head: []string{"n"}, Body: logic.Conjunction{
		logic.NewAtom("Nope", logic.Var("n"))}}
	if badRel.Validate(m.Target) == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := NewUCQ("q"); err == nil {
		t.Fatal("empty union accepted")
	}
	if _, err := NewUCQ("q", good, CQ{Name: "q", Head: []string{"a", "b"}, Body: good.Body}); err == nil {
		t.Fatal("mixed arity union accepted")
	}
	if _, err := NewUCQ("q", CQ{Name: "other", Head: []string{"n"}, Body: good.Body}); err == nil {
		t.Fatal("mismatched disjunct name accepted")
	}
}

func TestNaiveEvalOnPaperSolution(t *testing.T) {
	// q(n, s) :- Emp(n, c, s) on the Figure 9 solution. Certain answers:
	// Ada earns 18k on [2013,inf), Bob earns 13k on [2015,2018). The
	// unknown-salary periods produce no certain answers.
	jc := chaseFigure4(t)
	u := empQuery(t)
	got := naiveEval(t, u, jc)
	iv, c, inf := paperex.Iv, paperex.C, paperex.Inf
	want := []fact.CFact{
		fact.NewC("q", iv(2013, inf), c("Ada"), c("18k")),
		fact.NewC("q", iv(2015, 2018), c("Bob"), c("13k")),
	}
	if got.Len() != len(want) {
		t.Fatalf("answers:\n%s\nwant %d rows", got, len(want))
	}
	for _, w := range want {
		if !got.Contains(w) {
			t.Fatalf("missing %v in:\n%s", w, got)
		}
	}
}

func TestJoinThroughNullSurvivesFreezing(t *testing.T) {
	// Naïve-table semantics: the same unknown value joins with itself.
	// q(n, n2) :- Emp(n, c, s) ∧ Emp(n2, c, s) with a shared annotated
	// null s must return (a, b) even though s is unknown.
	var g value.NullGen
	n := g.FreshAnn(paperex.Iv(1, 5))
	jc := instance.NewConcrete(nil)
	jc.MustInsert(fact.NewC("Emp", paperex.Iv(1, 5), paperex.C("a"), paperex.C("X"), n))
	jc.MustInsert(fact.NewC("Emp", paperex.Iv(1, 5), paperex.C("b"), paperex.C("X"), n))
	q := CQ{Name: "q", Head: []string{"n", "n2"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s")),
		logic.NewAtom("Emp", logic.Var("n2"), logic.Var("c"), logic.Var("s")),
	}}
	u, _ := NewUCQ("q", q)
	got := naiveEval(t, u, jc)
	if !got.Contains(fact.NewC("q", paperex.Iv(1, 5), paperex.C("a"), paperex.C("b"))) {
		t.Fatalf("join through shared null lost:\n%s", got)
	}
	// Distinct nulls must not join.
	jc2 := instance.NewConcrete(nil)
	jc2.MustInsert(fact.NewC("Emp", paperex.Iv(1, 5), paperex.C("a"), paperex.C("X"), g.FreshAnn(paperex.Iv(1, 5))))
	jc2.MustInsert(fact.NewC("Emp", paperex.Iv(1, 5), paperex.C("b"), paperex.C("X"), g.FreshAnn(paperex.Iv(1, 5))))
	got2 := naiveEval(t, u, jc2)
	if got2.Contains(fact.NewC("q", paperex.Iv(1, 5), paperex.C("a"), paperex.C("b"))) {
		t.Fatalf("distinct nulls joined:\n%s", got2)
	}
}

func TestAnswersWithNullHeadAreDropped(t *testing.T) {
	// q(s) :- Emp(n, c, s): the unknown salaries must not appear.
	jc := chaseFigure4(t)
	q := CQ{Name: "q", Head: []string{"s"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s"))}}
	u, _ := NewUCQ("q", q)
	got := naiveEval(t, u, jc)
	for _, f := range got.Facts() {
		if f.HasNulls() {
			t.Fatalf("null leaked into answers: %v", f)
		}
		if f.Args[0] != paperex.C("18k") && f.Args[0] != paperex.C("13k") {
			t.Fatalf("unexpected answer %v", f)
		}
	}
}

func TestUCQUnionSemantics(t *testing.T) {
	// q(n) :- Emp(n, IBM, s) ∪ q(n) :- Emp(n, Google, s).
	jc := chaseFigure4(t)
	d1 := CQ{Name: "q", Head: []string{"n"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Const("IBM"), logic.Var("s"))}}
	d2 := CQ{Name: "q", Head: []string{"n"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Const("Google"), logic.Var("s"))}}
	u, err := NewUCQ("q", d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	got := naiveEval(t, u, jc)
	iv, c, inf := paperex.Iv, paperex.C, paperex.Inf
	// Ada at IBM [2012,2014) and at Google [2014,inf) coalesce into one
	// answer interval [2012,inf); Bob at IBM on [2013,2018). The null
	// salaries do not matter: the head projects n only.
	for _, w := range []fact.CFact{
		fact.NewC("q", iv(2012, inf), c("Ada")),
		fact.NewC("q", iv(2013, 2018), c("Bob")),
	} {
		if !got.Contains(w) {
			t.Fatalf("missing %v in:\n%s", w, got)
		}
	}
	if got.Len() != 2 {
		t.Fatalf("want exactly 2 coalesced answers:\n%s", got)
	}
}

func TestTheorem21OnPaperExample(t *testing.T) {
	// ⟦q+(Jc)↓⟧ = q(⟦Jc⟧)↓ on the running example.
	jc := chaseFigure4(t)
	u := empQuery(t)
	lhs := naiveEval(t, u, jc)
	rhs := CertainAbstract(u, jc.Abstract())
	if !lhs.Abstract().EqualTo(rhs.Abstract()) {
		t.Fatalf("Theorem 21 violated:\nconcrete:\n%s\nabstract:\n%s", lhs, rhs)
	}
}

func TestCorollary22CertainAnswers(t *testing.T) {
	// certain(q, ⟦Ic⟧, M) = ⟦q+(c-chase(Ic))↓⟧, and it must agree with
	// naïve evaluation over the abstract chase result.
	ic := paperex.Figure4()
	m := paperex.EmploymentMapping()
	u := empQuery(t)
	got, err := CertainAnswers(u, ic, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ja, _, err := chase.Abstract(ic.Abstract(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := CertainAbstract(u, ja)
	if !got.Abstract().EqualTo(want.Abstract()) {
		t.Fatalf("Corollary 22 violated:\n%s\nvs\n%s", got, want)
	}
	// Chase failure propagates.
	bad := ic.Clone()
	bad.MustInsert(fact.NewC("S", paperex.Iv(2013, 2014), paperex.C("Ada"), paperex.C("99k")))
	if _, err := CertainAnswers(u, bad, m, nil); err == nil {
		t.Fatal("failing chase must surface an error")
	}
}

func randomSolution(r *rand.Rand, g *value.NullGen) *instance.Concrete {
	jc := instance.NewConcrete(nil)
	names := []string{"a", "b", "c"}
	comps := []string{"X", "Y"}
	sals := []string{"1k", "2k"}
	for i := 0; i < 1+r.Intn(8); i++ {
		s := interval.Time(r.Intn(10))
		var t0 interval.Interval
		if r.Intn(5) == 0 {
			t0 = interval.Interval{Start: s, End: interval.Infinity}
		} else {
			t0 = paperex.Iv(s, s+1+interval.Time(r.Intn(6)))
		}
		var sal value.Value
		if r.Intn(3) == 0 {
			sal = g.FreshAnn(t0)
		} else {
			sal = paperex.C(sals[r.Intn(2)])
		}
		jc.MustInsert(fact.NewC("Emp", t0, paperex.C(names[r.Intn(3)]), paperex.C(comps[r.Intn(2)]), sal))
	}
	return jc
}

func TestTheorem21Property(t *testing.T) {
	// Randomized Theorem 21: naïve evaluation on random concrete
	// solutions equals per-snapshot naïve evaluation on their abstract
	// views, for single-atom, join, and union queries.
	r := rand.New(rand.NewSource(53))
	var g value.NullGen
	q1 := CQ{Name: "q", Head: []string{"n", "s"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s"))}}
	q2 := CQ{Name: "q", Head: []string{"n", "n2"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s")),
		logic.NewAtom("Emp", logic.Var("n2"), logic.Var("c"), logic.Var("s2"))}}
	u1, _ := NewUCQ("q", q1)
	u2, _ := NewUCQ("q", q2)
	q3a := CQ{Name: "q", Head: []string{"n"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Const("X"), logic.Var("s"))}}
	q3b := CQ{Name: "q", Head: []string{"n"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Const("Y"), logic.Var("s"))}}
	u3, _ := NewUCQ("q", q3a, q3b)
	for trial := 0; trial < 120; trial++ {
		jc := randomSolution(r, &g)
		for _, u := range []UCQ{u1, u2, u3} {
			lhs := naiveEval(t, u, jc)
			rhs := CertainAbstract(u, jc.Abstract())
			if !lhs.Abstract().EqualTo(rhs.Abstract()) {
				t.Fatalf("Theorem 21 violated on:\n%s\nquery %v\nconcrete:\n%s\nabstract:\n%s",
					jc, u.Name, lhs, rhs)
			}
		}
	}
}

func TestEvalSnapshotModes(t *testing.T) {
	var g value.NullGen
	snap := instance.NewSnapshot()
	snap.Insert(fact.New("Emp", paperex.C("a"), paperex.C("X"), g.FreshNull()))
	snap.Insert(fact.New("Emp", paperex.C("b"), paperex.C("X"), paperex.C("1k")))
	u := UCQ{Name: "q", Disjuncts: []CQ{{Name: "q", Head: []string{"n", "s"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s"))}}}}
	all := EvalSnapshot(u, snap, false)
	certain := EvalSnapshot(u, snap, true)
	if len(all) != 2 || len(certain) != 1 {
		t.Fatalf("all=%d certain=%d", len(all), len(certain))
	}
	if certain[0].Args[0] != paperex.C("b") {
		t.Fatalf("certain answer = %v", certain[0])
	}
}

func TestQueryString(t *testing.T) {
	q := CQ{Name: "q", Head: []string{"n", "s"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s"))}}
	if got := q.String(); got != "q(n, s) :- Emp(?n, ?c, ?s)" {
		t.Fatalf("String = %q", got)
	}
	u, _ := NewUCQ("q", q)
	if u.Arity() != 2 {
		t.Fatal("Arity broken")
	}
}

func TestNaiveEvalConstantSpelledLikeNull(t *testing.T) {
	// Bob's salary is a data constant spelled "cn_" + Ada's unknown
	// salary, the constant referenceNaiveEval freezes that null to. It
	// must stay a constant: a certain answer for Bob, and no join with
	// Ada's unknown.
	m := paperex.EmploymentMapping()
	iv, c := paperex.Iv(0, 5), paperex.C
	chaseWith := func(bobSalary value.Value) *instance.Concrete {
		ic := instance.NewConcrete(m.Source)
		ic.MustInsert(fact.NewC("E", iv, c("Ada"), c("IBM")))
		ic.MustInsert(fact.NewC("E", iv, c("Bob"), c("IBM")))
		ic.MustInsert(fact.NewC("S", iv, c("Bob"), bobSalary))
		jc, _, err := chase.Concrete(ic, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		return jc
	}
	adaNull := func(jc *instance.Concrete) value.Value {
		for _, f := range jc.FactsOf("Emp") {
			if f.Args[0] == c("Ada") && f.Args[2].Kind() == value.AnnNull {
				return f.Args[2]
			}
		}
		t.Fatalf("no unknown salary for Ada in:\n%s", jc)
		return value.Value{}
	}
	n := adaNull(chaseWith(c("13k")))
	jc := chaseWith(value.NewConst("cn_" + n.String()))
	if got := adaNull(jc); got != n {
		t.Fatalf("Ada's unknown salary is %v, want %v", got, n)
	}
	pair, err := NewUCQ("pair", CQ{Name: "pair", Head: []string{"a", "b"}, Body: logic.Conjunction{
		logic.NewAtom("Emp", logic.Var("a"), logic.Var("c"), logic.Var("s")),
		logic.NewAtom("Emp", logic.Var("b"), logic.Var("c2"), logic.Var("s")),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []UCQ{empQuery(t), pair} {
		got := naiveEval(t, u, jc)
		want := CertainAbstract(u, jc.Abstract())
		if !got.Abstract().EqualTo(want.Abstract()) {
			t.Fatalf("%v on\n%s\nnaive:\n%s\ncertain:\n%s", u.Disjuncts, jc, got, want)
		}
	}
}

func TestNaiveEvalAllocs(t *testing.T) {
	// q(n, s) :- Emp(n, c, s) over the frozen 999-fact employment-200
	// solution. The bound leaves room above the ~2,800 allocations of
	// matching the solution's interned rows, but not for a copy of the
	// solution (referenceNaiveEval's, about 11,000).
	ic := workload.Employment(workload.EmploymentConfig{
		Seed: 1, Persons: 200, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 200,
	})
	jc, _, err := chase.Concrete(ic, paperex.EmploymentMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if jc.Len() != 999 {
		t.Fatalf("employment-200 solution has %d facts, want 999", jc.Len())
	}
	u := empQuery(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NaiveEval(ctx, u, jc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 5000 {
		t.Fatalf("NaiveEval allocated %.0f objects, want under 5,000", allocs)
	}
}
