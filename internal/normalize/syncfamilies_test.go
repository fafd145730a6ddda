package normalize

import (
	"context"
	"testing"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/value"
)

// familyAnnotationsAligned reports whether every pair of overlapping
// occurrences of the same null family carries identical annotations —
// the invariant syncFamiliesCtx establishes.
func familyAnnotationsAligned(c *instance.Concrete) bool {
	occ := make(map[uint64][]interval.Interval)
	for _, f := range c.Facts() {
		for _, v := range f.Args {
			if v.Kind() == value.AnnNull {
				occ[v.ID] = append(occ[v.ID], f.T)
			}
		}
	}
	for _, ivs := range occ {
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].Overlaps(ivs[j]) && ivs[i] != ivs[j] {
					return false
				}
			}
		}
	}
	return true
}

func TestSyncFamiliesAlignsOccurrences(t *testing.T) {
	// The regression shape from the randomized-mapping bug: one family
	// annotated [1,3) in T0 and fragmented to [1,2)/[2,3) in T1.
	var g value.NullGen
	n := g.Fresh()
	c := instance.NewConcrete(nil)
	c.MustInsert(fact.NewC("T0", paperex.Iv(1, 3), paperex.C("a"), value.NewAnnNull(n, paperex.Iv(1, 3))))
	c.MustInsert(fact.NewC("T1", paperex.Iv(1, 2), paperex.C("a"), value.NewAnnNull(n, paperex.Iv(1, 2))))
	c.MustInsert(fact.NewC("T1", paperex.Iv(2, 3), paperex.C("a"), value.NewAnnNull(n, paperex.Iv(2, 3))))
	if familyAnnotationsAligned(c) {
		t.Fatal("test input should start misaligned")
	}
	out, err := syncFamiliesCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !familyAnnotationsAligned(out) {
		t.Fatalf("occurrences still misaligned:\n%s", out)
	}
	// T0's fact must have split at 2.
	if !out.Contains(fact.NewC("T0", paperex.Iv(1, 2), paperex.C("a"), value.NewAnnNull(n, paperex.Iv(1, 2)))) {
		t.Fatalf("T0 not fragmented:\n%s", out)
	}
	if !Check(c, out) {
		t.Fatal("syncFamiliesCtx changed semantics")
	}
	// Already-aligned instances pass through unchanged (same pointer-free
	// equality).
	again, err := syncFamiliesCtx(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(out) {
		t.Fatal("syncFamiliesCtx not idempotent")
	}
}

func TestSyncFamiliesCascades(t *testing.T) {
	// Fragmenting for one family can desynchronize another sharing a
	// fact; the fixpoint loop must settle both.
	var g value.NullGen
	n1, n2 := g.Fresh(), g.Fresh()
	c := instance.NewConcrete(nil)
	// Fact A carries both families over [0,4); fact B pins n1 to [0,2);
	// fact C pins n2 to [1,4).
	c.MustInsert(fact.NewC("R", paperex.Iv(0, 4),
		value.NewAnnNull(n1, paperex.Iv(0, 4)), value.NewAnnNull(n2, paperex.Iv(0, 4))))
	c.MustInsert(fact.NewC("S", paperex.Iv(0, 2), value.NewAnnNull(n1, paperex.Iv(0, 2))))
	c.MustInsert(fact.NewC("P", paperex.Iv(1, 4), value.NewAnnNull(n2, paperex.Iv(1, 4))))
	out, err := syncFamiliesCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !familyAnnotationsAligned(out) {
		t.Fatalf("cascade not settled:\n%s", out)
	}
	if !Check(c, out) {
		t.Fatal("semantics changed")
	}
	// R must be cut at both 1 (from n2's pin) and 2 (from n1's pin).
	found := false
	for _, f := range out.FactsOf("R") {
		if f.T == paperex.Iv(1, 2) {
			found = true
		}
	}
	if !found {
		t.Fatalf("R not cut at both family boundaries:\n%s", out)
	}
}

func TestForEgdPhaseEstablishesBothInvariants(t *testing.T) {
	tv := logic.Var(dependency.TemporalVar)
	phi := logic.Conjunction{
		logic.Atom{Rel: "Emp", Terms: []logic.Term{logic.Var("n"), logic.Var("s"), tv}},
		logic.Atom{Rel: "Emp", Terms: []logic.Term{logic.Var("n"), logic.Var("s2"), tv}},
	}
	var g value.NullGen
	n := g.Fresh()
	c := instance.NewConcrete(nil)
	c.MustInsert(fact.NewC("Emp", paperex.Iv(0, 6), paperex.C("a"), value.NewAnnNull(n, paperex.Iv(0, 6))))
	c.MustInsert(fact.NewC("Emp", paperex.Iv(2, 4), paperex.C("a"), paperex.C("9k")))
	c.MustInsert(fact.NewC("Other", paperex.Iv(1, 3), paperex.C("a"), value.NewAnnNull(n, paperex.Iv(1, 3))))
	out, err := ForEgdPhaseCtx(context.Background(), c, []logic.Conjunction{phi}, StrategySmart)
	if err != nil {
		t.Fatal(err)
	}
	if !HasEmptyIntersectionProperty(out, []logic.Conjunction{phi}) {
		t.Fatalf("EIP missing:\n%s", out)
	}
	if !familyAnnotationsAligned(out) {
		t.Fatalf("families misaligned:\n%s", out)
	}
	if !Check(c, out) {
		t.Fatal("semantics changed")
	}
	// Naive strategy gives both invariants in one pass.
	nv, err := ForEgdPhaseCtx(context.Background(), c, []logic.Conjunction{phi}, StrategyNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !HasEmptyIntersectionProperty(nv, []logic.Conjunction{phi}) || !familyAnnotationsAligned(nv) {
		t.Fatalf("naive path invariants missing:\n%s", nv)
	}
}
