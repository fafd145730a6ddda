package normalize

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/value"
)

// wantFacts asserts that got contains exactly the listed facts.
func wantFacts(t *testing.T, got *instance.Concrete, want []fact.CFact) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("got %d facts, want %d:\n%s", got.Len(), len(want), got)
	}
	for _, f := range want {
		if !got.Contains(f) {
			t.Fatalf("missing fact %v in:\n%s", f, got)
		}
	}
}

func TestFigure5SmartNormalization(t *testing.T) {
	// norm(Figure 4, lhs(σ2+)) must equal Figure 5: nine facts.
	ic := paperex.Figure4()
	got := Smart(ic, []logic.Conjunction{paperex.Sigma2Body()})
	iv, c, inf := paperex.Iv, paperex.C, paperex.Inf
	wantFacts(t, got, []fact.CFact{
		fact.NewC("E", iv(2012, 2013), c("Ada"), c("IBM")),
		fact.NewC("E", iv(2013, 2014), c("Ada"), c("IBM")),
		fact.NewC("E", iv(2014, inf), c("Ada"), c("Google")),
		fact.NewC("E", iv(2013, 2015), c("Bob"), c("IBM")),
		fact.NewC("E", iv(2015, 2018), c("Bob"), c("IBM")),
		fact.NewC("S", iv(2013, 2014), c("Ada"), c("18k")),
		fact.NewC("S", iv(2014, inf), c("Ada"), c("18k")),
		fact.NewC("S", iv(2015, 2018), c("Bob"), c("13k")),
		fact.NewC("S", iv(2018, inf), c("Bob"), c("13k")),
	})
}

func TestFigure6NaiveNormalization(t *testing.T) {
	// Naïve normalization of Figure 4 must equal Figure 6: fourteen facts,
	// over-fragmenting relative to Figure 5.
	ic := paperex.Figure4()
	got := Naive(ic)
	iv, c, inf := paperex.Iv, paperex.C, paperex.Inf
	wantFacts(t, got, []fact.CFact{
		fact.NewC("E", iv(2012, 2013), c("Ada"), c("IBM")),
		fact.NewC("E", iv(2013, 2014), c("Ada"), c("IBM")),
		fact.NewC("E", iv(2014, 2015), c("Ada"), c("Google")),
		fact.NewC("E", iv(2015, 2018), c("Ada"), c("Google")),
		fact.NewC("E", iv(2018, inf), c("Ada"), c("Google")),
		fact.NewC("E", iv(2013, 2014), c("Bob"), c("IBM")),
		fact.NewC("E", iv(2014, 2015), c("Bob"), c("IBM")),
		fact.NewC("E", iv(2015, 2018), c("Bob"), c("IBM")),
		fact.NewC("S", iv(2013, 2014), c("Ada"), c("18k")),
		fact.NewC("S", iv(2014, 2015), c("Ada"), c("18k")),
		fact.NewC("S", iv(2015, 2018), c("Ada"), c("18k")),
		fact.NewC("S", iv(2018, inf), c("Ada"), c("18k")),
		fact.NewC("S", iv(2015, 2018), c("Bob"), c("13k")),
		fact.NewC("S", iv(2018, inf), c("Bob"), c("13k")),
	})
}

func TestFigure8AlgorithmOnExample14(t *testing.T) {
	// norm(Figure 7, Φ+ of Example 14) must equal Figure 8: thirteen facts.
	ic := paperex.Figure7()
	got, stats := SmartWithStats(ic, paperex.Example14Conjunctions())
	iv, c, inf := paperex.Iv, paperex.C, paperex.Inf
	wantFacts(t, got, []fact.CFact{
		// f1 = R(a, [5,11)) fragments on TP_Δ1 = <5,7,8,10,11,15>.
		fact.NewC("R", iv(5, 7), c("a")),
		fact.NewC("R", iv(7, 8), c("a")),
		fact.NewC("R", iv(8, 10), c("a")),
		fact.NewC("R", iv(10, 11), c("a")),
		// f2 = P(a, [8,15)).
		fact.NewC("P", iv(8, 10), c("a")),
		fact.NewC("P", iv(10, 11), c("a")),
		fact.NewC("P", iv(11, 15), c("a")),
		// f3 = S(a, [7,10)).
		fact.NewC("S", iv(7, 8), c("a")),
		fact.NewC("S", iv(8, 10), c("a")),
		// f4 = P(b, [20,25)) has no interior cut in TP_Δ2 = <18,20,25,inf>.
		fact.NewC("P", iv(20, 25), c("b")),
		// f5 = S(b, [18,inf)).
		fact.NewC("S", iv(18, 20), c("b")),
		fact.NewC("S", iv(20, 25), c("b")),
		fact.NewC("S", iv(25, inf), c("b")),
	})
	// Two merged components: {f1,f2,f3} and {f4,f5} (Example 14).
	if stats.Components != 2 {
		t.Fatalf("components = %d, want 2", stats.Components)
	}
	if stats.InputFacts != 5 || stats.OutputFacts != 13 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSharedTemporalVariableAfterNormalization(t *testing.T) {
	// §4.2 motivation: before normalization no homomorphism exists from
	// the lhs of σ2+ (shared t); after normalization the expected
	// homomorphisms appear, e.g. n→Ada, c→IBM, s→18k, t→[2013,2014).
	ic := paperex.Figure4()
	body := paperex.Sigma2Body()
	if logic.Exists(ic.Store(), body, nil) {
		t.Fatal("unnormalized instance should admit no homomorphism")
	}
	norm := Smart(ic, []logic.Conjunction{body})
	ms := logic.FindAll(norm.Store(), body, nil)
	if len(ms) == 0 {
		t.Fatal("normalized instance should admit homomorphisms")
	}
	found := false
	for _, m := range ms {
		if m.Binding["n"] == paperex.C("Ada") &&
			m.Binding["c"] == paperex.C("IBM") &&
			m.Binding[dependency.TemporalVar] == value.NewInterval(paperex.Iv(2013, 2014)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected Example 8 homomorphism among %d matches", len(ms))
	}
}

func TestTheorem11EIPDetection(t *testing.T) {
	ic := paperex.Figure4()
	phis := []logic.Conjunction{paperex.Sigma2Body()}
	if HasEmptyIntersectionProperty(ic, phis) {
		t.Fatal("Figure 4 is not normalized w.r.t. lhs(σ2+)")
	}
	if !HasEmptyIntersectionProperty(Smart(ic, phis), phis) {
		t.Fatal("Smart output must have the EIP (Theorem 15)")
	}
	if !HasEmptyIntersectionProperty(Naive(ic), phis) {
		t.Fatal("Naive output must have the EIP")
	}
	// An instance with no joinable facts is trivially normalized.
	solo := instance.NewConcrete(nil)
	solo.MustInsert(fact.NewC("E", paperex.Iv(1, 5), paperex.C("x"), paperex.C("y")))
	if !HasEmptyIntersectionProperty(solo, phis) {
		t.Fatal("single-fact instance is vacuously normalized")
	}
}

func TestSmartNoMatchesIsIdentity(t *testing.T) {
	// When Φ+ never matches (different join keys), Smart leaves the
	// instance untouched even though intervals overlap.
	ic := instance.NewConcrete(nil)
	ic.MustInsert(fact.NewC("E", paperex.Iv(1, 10), paperex.C("Ada"), paperex.C("IBM")))
	ic.MustInsert(fact.NewC("S", paperex.Iv(5, 15), paperex.C("Bob"), paperex.C("9k")))
	out := Smart(ic, []logic.Conjunction{paperex.Sigma2Body()})
	if !out.Equal(ic) {
		t.Fatalf("Smart fragmented unrelated facts:\n%s", out)
	}
	// Naive fragments them regardless — the over-fragmentation trade-off.
	if Naive(ic).Len() <= ic.Len() {
		t.Fatal("Naive should over-fragment here")
	}
}

func TestNormalizationPreservesAnnotatedNulls(t *testing.T) {
	// Fragmenting a fact with an annotated null keeps the family and
	// renames annotations to the fragment intervals.
	var g value.NullGen
	n := g.FreshAnn(paperex.Iv(1, 10))
	ic := instance.NewConcrete(nil)
	ic.MustInsert(fact.NewC("Emp", paperex.Iv(1, 10), paperex.C("Ada"), n))
	ic.MustInsert(fact.NewC("Emp", paperex.Iv(5, 12), paperex.C("Ada"), paperex.C("x")))
	tv := logic.Var(dependency.TemporalVar)
	phi := logic.Conjunction{
		logic.Atom{Rel: "Emp", Terms: []logic.Term{logic.Var("n"), logic.Var("s"), tv}},
		logic.Atom{Rel: "Emp", Terms: []logic.Term{logic.Var("n"), logic.Var("s2"), tv}},
	}
	out := Smart(ic, []logic.Conjunction{phi})
	if out.Len() != 4 {
		t.Fatalf("want 4 fragments, got:\n%s", out)
	}
	for _, f := range out.Facts() {
		if err := f.Validate(); err != nil {
			t.Fatalf("fragment invariant broken: %v", err)
		}
	}
	if !Check(ic, out) {
		t.Fatal("normalization changed semantics")
	}
}

func TestFragmentBound(t *testing.T) {
	if FragmentBound(0) != 0 || FragmentBound(1) != 1 {
		t.Fatal("small bounds wrong")
	}
	if FragmentBound(10) != 190 {
		t.Fatalf("FragmentBound(10) = %d", FragmentBound(10))
	}
}

func TestForMappingStrategies(t *testing.T) {
	ic := paperex.Figure4()
	phis := []logic.Conjunction{paperex.Sigma2Body()}
	smart, err := ForMappingCtx(context.Background(), ic, phis, StrategySmart)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := ForMappingCtx(context.Background(), ic, phis, StrategyNaive)
	if err != nil {
		t.Fatal(err)
	}
	if smart.Len() != 9 || naive.Len() != 14 {
		t.Fatalf("smart=%d naive=%d", smart.Len(), naive.Len())
	}
	if StrategySmart.String() != "smart" || StrategyNaive.String() != "naive" {
		t.Fatal("Strategy String broken")
	}
}

// randomInstance builds a random concrete instance for property tests.
func randomInstance(r *rand.Rand, nFacts int) *instance.Concrete {
	ic := instance.NewConcrete(nil)
	rels := []string{"E", "S"}
	for i := 0; i < nFacts; i++ {
		s := interval.Time(r.Intn(12))
		var t0 interval.Interval
		if r.Intn(6) == 0 {
			t0 = interval.Interval{Start: s, End: interval.Infinity}
		} else {
			t0 = paperex.Iv(s, s+1+interval.Time(r.Intn(8)))
		}
		name := string(rune('a' + r.Intn(3)))
		val := string(rune('u' + r.Intn(3)))
		ic.MustInsert(fact.NewC(rels[r.Intn(2)], t0, paperex.C(name), paperex.C(val)))
	}
	return ic
}

func randomPhis() []logic.Conjunction {
	tv := logic.Var(dependency.TemporalVar)
	return []logic.Conjunction{
		{
			logic.Atom{Rel: "E", Terms: []logic.Term{logic.Var("n"), logic.Var("c"), tv}},
			logic.Atom{Rel: "S", Terms: []logic.Term{logic.Var("n"), logic.Var("s"), tv}},
		},
		{
			logic.Atom{Rel: "S", Terms: []logic.Term{logic.Var("n"), logic.Var("s"), tv}},
			logic.Atom{Rel: "S", Terms: []logic.Term{logic.Var("n"), logic.Var("s2"), tv}},
		},
	}
}

func TestTheorem15OutputNormalized(t *testing.T) {
	// Property: Smart's output always has the empty intersection property,
	// preserves semantics, and respects the Theorem 13 size bound.
	r := rand.New(rand.NewSource(31))
	phis := randomPhis()
	for trial := 0; trial < 150; trial++ {
		ic := randomInstance(r, 1+r.Intn(10))
		out := Smart(ic, phis)
		if !HasEmptyIntersectionProperty(out, phis) {
			t.Fatalf("EIP violated (Theorem 15) on:\n%s\noutput:\n%s", ic, out)
		}
		if !Check(ic, out) {
			t.Fatalf("semantics changed on:\n%s\noutput:\n%s", ic, out)
		}
		if out.Len() > FragmentBound(ic.Len()) {
			t.Fatalf("Theorem 13 bound exceeded: %d > %d", out.Len(), FragmentBound(ic.Len()))
		}
	}
}

func TestTheorem11Equivalence(t *testing.T) {
	// Property (both directions of Theorem 11, using Naive as a second
	// normalizer): any output of either normalizer has the EIP, and
	// whenever an instance lacks the EIP, Smart changes it.
	r := rand.New(rand.NewSource(37))
	phis := randomPhis()
	for trial := 0; trial < 150; trial++ {
		ic := randomInstance(r, 1+r.Intn(10))
		nv := Naive(ic)
		if !HasEmptyIntersectionProperty(nv, phis) {
			t.Fatalf("naive output lacks EIP on:\n%s", ic)
		}
		if !Check(ic, nv) {
			t.Fatalf("naive changed semantics on:\n%s", ic)
		}
		if !HasEmptyIntersectionProperty(ic, phis) {
			out := Smart(ic, phis)
			if out.Equal(ic) {
				t.Fatalf("instance lacks EIP but Smart was identity:\n%s", ic)
			}
		}
	}
}

func TestSmartIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	phis := randomPhis()
	for trial := 0; trial < 80; trial++ {
		ic := randomInstance(r, 1+r.Intn(8))
		once := Smart(ic, phis)
		twice := Smart(once, phis)
		if !twice.Equal(once) {
			t.Fatalf("Smart not idempotent on:\n%s\nonce:\n%s\ntwice:\n%s", ic, once, twice)
		}
	}
}

func TestSmartEmptyConjunction(t *testing.T) {
	// Regression: an empty conjunction in Φ+ has one (empty) homomorphism
	// with an empty fact set Δ; matchSets must skip it, not panic.
	ic := instance.NewConcrete(nil)
	ic.MustInsert(fact.NewC("R", paperex.Iv(0, 5), paperex.C("a")))
	out := Smart(ic, []logic.Conjunction{{}})
	if !out.Equal(ic) {
		t.Fatalf("empty conjunction must not fragment anything:\n%s", out)
	}
	if !HasEmptyIntersectionProperty(ic, []logic.Conjunction{{}}) {
		t.Fatal("empty conjunction trivially has the EIP")
	}
}
