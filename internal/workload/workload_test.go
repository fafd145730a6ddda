package workload

import (
	"context"
	"errors"
	"testing"

	"repro/internal/chase"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/normalize"
	"repro/internal/paperex"
	"repro/internal/query"
	"repro/internal/value"
	"repro/internal/verify"
)

func TestEmploymentDeterministic(t *testing.T) {
	cfg := DefaultEmployment()
	cfg.Persons = 20
	a := Employment(cfg)
	b := Employment(cfg)
	if !a.Equal(b) {
		t.Fatal("generator not deterministic")
	}
	cfg.Seed = 2
	c := Employment(cfg)
	if a.Equal(c) {
		t.Fatal("seed has no effect")
	}
	if a.Len() == 0 || !a.IsComplete() {
		t.Fatal("bad instance")
	}
}

func TestEmploymentChasesClean(t *testing.T) {
	cfg := DefaultEmployment()
	cfg.Persons = 30
	cfg.Conflicts = 0
	ic := Employment(cfg)
	m := paperex.EmploymentMapping()
	jc, stats, err := chase.Concrete(ic, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if jc.Len() == 0 || stats.TGDFires == 0 {
		t.Fatal("chase produced nothing")
	}
	if ok, why := verify.IsSolution(ic.Abstract(), jc.Abstract(), m); !ok {
		t.Fatalf("not a solution: %s", why)
	}
}

func TestEmploymentConflictsFail(t *testing.T) {
	cfg := DefaultEmployment()
	cfg.Persons = 10
	cfg.Conflicts = 1
	ic := Employment(cfg)
	if _, _, err := chase.Concrete(ic, paperex.EmploymentMapping(), nil); !errors.Is(err, chase.ErrNoSolution) {
		t.Fatalf("conflict workload should fail the chase, got %v", err)
	}
}

func TestMedicalWorkload(t *testing.T) {
	m := MedicalMapping()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ic := Medical(MedicalConfig{Seed: 3, Patients: 25, Span: 60})
	if !Medical(MedicalConfig{Seed: 3, Patients: 25, Span: 60}).Equal(ic) {
		t.Fatal("not deterministic")
	}
	jc, _, err := chase.Concrete(ic, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Treatments pair drugs with diagnoses; charts exist for admissions.
	q := query.CQ{Name: "q", Head: []string{"p"}, Body: logic.Conjunction{
		logic.NewAtom("Chart", logic.Var("p"), logic.Var("w"), logic.Var("d"))}}
	u, _ := query.NewUCQ("q", q)
	if _, err := query.NaiveEval(context.Background(), u, jc); err != nil {
		t.Fatal(err)
	}
}

func TestTaxiWorkload(t *testing.T) {
	m := TaxiMapping()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ic := Taxi(TaxiConfig{Seed: 5, Drivers: 15, Cabs: 6, Span: 40})
	jc, _, err := chase.Concrete(ic, m, nil)
	if err != nil {
		t.Fatalf("taxi chase failed: %v", err)
	}
	if jc.Len() == 0 {
		t.Fatal("no trips generated")
	}
	if ok, why := verify.IsSolution(ic.Abstract(), jc.Abstract(), m); !ok {
		t.Fatalf("not a solution: %s", why)
	}
}

func TestStaircaseWorstCase(t *testing.T) {
	// The staircase drives smart normalization to its quadratic bound:
	// with n facts there are 2n−1 endpoint cuts; each fact fragments into
	// ~n pieces, totaling Θ(n²).
	n := 20
	ic := Staircase(n)
	out := normalize.Smart(ic, StaircasePhi())
	if out.Len() <= n*(n/2) {
		t.Fatalf("staircase did not explode: %d facts from %d", out.Len(), n)
	}
	if out.Len() > normalize.FragmentBound(n) {
		t.Fatalf("exceeded Theorem 13 bound: %d > %d", out.Len(), normalize.FragmentBound(n))
	}
	if !normalize.HasEmptyIntersectionProperty(out, StaircasePhi()) {
		t.Fatal("staircase output not normalized")
	}
}

func TestNestedAndDisjointShapes(t *testing.T) {
	nested := Nested(10)
	if nested.Len() != 10 {
		t.Fatal("nested size")
	}
	out := normalize.Smart(nested, StaircasePhi())
	if out.Len() <= 10 {
		t.Fatal("nested should fragment")
	}
	// Disjoint clusters stay cheap: each cluster fragments independently.
	dj := DisjointRuns(40, 8)
	outDj := normalize.Smart(dj, StaircasePhi())
	outStair := normalize.Smart(Staircase(40), StaircasePhi())
	if outDj.Len() >= outStair.Len() {
		t.Fatalf("disjoint (%d) should fragment less than staircase (%d)", outDj.Len(), outStair.Len())
	}
}

func TestNullHeavy(t *testing.T) {
	var g value.NullGen
	ic := NullHeavy(5, 4, &g)
	if ic.Len() != 20 {
		t.Fatalf("size = %d", ic.Len())
	}
	for _, f := range ic.Facts() {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Within each group the null facts and the constant fact share
	// (name, company) and interval, so the employment egd must merge
	// every null into the constant.
	groups := 0
	for _, f := range ic.Facts() {
		if !f.HasNulls() {
			groups++
		}
	}
	if groups != 5 {
		t.Fatalf("constant anchors = %d, want 5", groups)
	}
}

func TestEgdStress(t *testing.T) {
	m := EgdStressMapping(4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ic := EgdStress(6, 4)
	if ic.Len() != 24 {
		t.Fatalf("size = %d", ic.Len())
	}
	jc, stats, err := chase.Concrete(ic, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// k nulls per group merge into one: 3 merges per group.
	if stats.EgdMerges != 18 {
		t.Fatalf("merges = %d, want 18 (stats %+v)", stats.EgdMerges, stats)
	}
	// One Emp fact per group survives, plus k witness facts per group.
	emp := 0
	for _, f := range jc.Facts() {
		if f.Rel == "Emp" {
			emp++
		}
	}
	if emp != 6 {
		t.Fatalf("Emp facts = %d, want one per group:\n%s", emp, jc)
	}
}

func TestPointwiseAgreesWithSegmentChase(t *testing.T) {
	ic := Employment(EmploymentConfig{Seed: 9, Persons: 6, JobsPerPerson: 2, SalaryCoverage: 0.8, Span: 20})
	m := paperex.EmploymentMapping()
	pts, _, err := chase.Pointwise(ic, m, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	ja, _, err := chase.Abstract(ic.Abstract(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tp, snap := range pts {
		seg := ja.Snapshot(interval.Time(tp))
		if snap.Len() != seg.Len() {
			t.Fatalf("pointwise and segment chase disagree at %d: %s vs %s", tp, snap, seg)
		}
	}
}

func TestDilatePreservesStructure(t *testing.T) {
	ic := Employment(EmploymentConfig{Seed: 9, Persons: 4, JobsPerPerson: 2, SalaryCoverage: 1, Span: 20})
	d := chase.Dilate(ic, 10)
	if d.Len() != ic.Len() {
		t.Fatal("dilation changed fact count")
	}
	m := paperex.EmploymentMapping()
	a, _, errA := chase.Concrete(ic, m, nil)
	b, _, errB := chase.Concrete(d, m, nil)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("dilation changed failure: %v vs %v", errA, errB)
	}
	if errA == nil && a.Len() != b.Len() {
		t.Fatalf("dilation changed solution size: %d vs %d", a.Len(), b.Len())
	}
}
