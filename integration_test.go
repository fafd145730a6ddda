package tdx

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coreof"
	"repro/internal/instance"
	"repro/internal/temporal"
	"repro/internal/verify"
	"repro/internal/workload"
)

// readTestdata loads one of the shipped .tdx/.facts files.
func readTestdata(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// compileTestdata compiles a shipped mapping file.
func compileTestdata(t *testing.T, name string, opts ...Option) *Exchange {
	t.Helper()
	ex, err := Compile(readTestdata(t, name), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestEndToEndPaperExample drives the full pipeline through the public
// API from the shipped files: compile → parse → run → verify → core →
// query → JSON round trip.
func TestEndToEndPaperExample(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "employment.tdx")
	src, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Len() != 5 {
		t.Fatalf("solution:\n%s", sol)
	}
	// Solution is a solution, universal vs the abstract chase, already a
	// core, and survives a JSON round trip.
	if ok, why := verify.IsSolution(src.Concrete().Abstract(), sol.Concrete().Abstract(), ex.Mapping()); !ok {
		t.Fatal(why)
	}
	ja, _, err := ex.RunAbstract(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if !verify.HomEquivalent(sol.Concrete().Abstract(), ja) {
		t.Fatal("Cor. 20 violated end to end")
	}
	if !coreof.IsCore(sol.Concrete()) {
		t.Fatal("Figure 9 should be a core")
	}
	if core := sol.Core(); core.Len() != sol.Len() {
		t.Fatalf("core shrank an already-core solution: %d → %d", sol.Len(), core.Len())
	}
	data, err := sol.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil || !back.Equal(&sol.Instance) {
		t.Fatalf("JSON round trip: %v", err)
	}
	if got := ex.Queries(); len(got) != 1 || got[0] != "q" {
		t.Fatalf("declared queries = %v", got)
	}
	ans, err := ex.Query(ctx, sol, "q")
	if err != nil || ans.Len() != 2 {
		t.Fatalf("answers: %v\n%s", err, ans)
	}
	// The end-to-end Answer path agrees with Run + Query.
	direct, err := ex.Answer(ctx, src, "q")
	if err != nil || !direct.Equal(ans) {
		t.Fatalf("Answer disagrees with Run+Query: %v\n%s", err, direct)
	}
	// Snapshot of the solution at a covered time point.
	snap, err := ex.Snapshot(ctx, sol, 2015)
	if err != nil || snap.Len() == 0 {
		t.Fatalf("snapshot: %v / %s", err, snap)
	}
}

// TestEndToEndWorkloads runs the three domain workloads through the
// public API and checks solution-hood on each.
func TestEndToEndWorkloads(t *testing.T) {
	ctx := context.Background()
	type wl struct {
		name string
		run  func(t *testing.T)
	}
	for _, w := range []wl{
		{"employment", func(t *testing.T) {
			ex, err := FromMapping(workload.EgdStressMapping(3))
			if err != nil {
				t.Fatal(err)
			}
			src := NewInstance(workload.EgdStress(10, 3))
			sol, err := ex.Run(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if ok, why := verify.IsSolution(src.Concrete().Abstract(), sol.Concrete().Abstract(), ex.Mapping()); !ok {
				t.Fatal(why)
			}
		}},
		{"medical", func(t *testing.T) {
			ex, err := FromMapping(workload.MedicalMapping())
			if err != nil {
				t.Fatal(err)
			}
			src := NewInstance(workload.Medical(workload.MedicalConfig{Seed: 11, Patients: 40, Span: 60}))
			sol, err := ex.Run(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := ex.Query(ctx, sol, "query q(p, d) :- Chart(p, w, d)")
			if err != nil {
				t.Fatal(err)
			}
			if ans.Len() == 0 {
				t.Fatal("no answers")
			}
		}},
		{"taxi", func(t *testing.T) {
			ex, err := FromMapping(workload.TaxiMapping())
			if err != nil {
				t.Fatal(err)
			}
			src := NewInstance(workload.Taxi(workload.TaxiConfig{Seed: 13, Drivers: 40, Cabs: 15, Span: 50}))
			sol, err := ex.Run(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Len() == 0 {
				t.Fatal("no trips")
			}
		}},
	} {
		t.Run(w.name, w.run)
	}
}

// TestEndToEndTemporal drives the shipped §7 modal mapping through the
// public API: Compile detects the modal markers and Run dispatches to
// the temporal chase transparently.
func TestEndToEndTemporal(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "phd.tdx")
	if !ex.Info().Temporal {
		t.Fatal("phd.tdx should compile as a temporal mapping")
	}
	if ex.Mapping() != nil || ex.Temporal() == nil {
		t.Fatal("temporal exchange should expose the modal mapping only")
	}
	src, err := ex.ParseSource(readTestdata(t, "phd.facts"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := temporal.Satisfies(src.Concrete(), sol.Concrete(), ex.Temporal()); !ok {
		t.Fatal(why)
	}
	if sol.Len() != 2 {
		t.Fatalf("result:\n%s", sol)
	}
	if _, _, err := ex.RunAbstract(ctx, src); err == nil {
		t.Fatal("RunAbstract should refuse temporal mappings")
	}
}

// TestFailurePipeline checks unsatisfiable inputs fail identically at
// every level of the public API: Run, Answer, and the abstract reference.
func TestFailurePipeline(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "employment.tdx")
	bad, err := ex.ParseSource(readTestdata(t, "employment.facts") + "\nS(Ada, 99k) @ [2013, 2014)\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(ctx, bad); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("Run: %v", err)
	}
	if _, err := ex.Answer(ctx, bad, "q"); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("Answer: %v", err)
	}
	if _, _, err := ex.RunAbstract(ctx, bad); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("RunAbstract: %v", err)
	}
}

// TestDiffAcrossChases: coalescing preserves semantics and the constant
// part of the solution is contained in it, via the public diff surface.
func TestDiffAcrossChases(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "employment.tdx")
	src, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	constOnly := func(c *Instance) *Instance {
		out := instance.NewConcrete(c.Concrete().Schema())
		for _, f := range c.Concrete().Facts() {
			if !f.HasNulls() {
				out.MustInsert(f)
			}
		}
		return NewInstance(out)
	}
	a := constOnly(&sol.Instance)
	if !instance.SameSemantics(a.Concrete(), a.Coalesce().Concrete()) {
		t.Fatal("coalescing changed semantics")
	}
	if d := a.Diff(&sol.Instance); d.Len() != 0 {
		t.Fatalf("constants not contained in solution:\n%s", d)
	}
}

// TestNormStrategiesAgree runs the exchange under both normalization
// strategies through per-run option overrides and checks the certain
// answers coincide.
func TestNormStrategiesAgree(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "employment.tdx")
	src, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	smart, err := ex.Run(ctx, src, WithNorm(NormSmart), WithCoalesce(true))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := ex.Run(ctx, src.Clone(), WithNorm(NormNaive), WithCoalesce(true))
	if err != nil {
		t.Fatal(err)
	}
	qa, err := ex.Query(ctx, smart, "q")
	if err != nil {
		t.Fatal(err)
	}
	qb, err := ex.Query(ctx, naive, "q")
	if err != nil {
		t.Fatal(err)
	}
	if !qa.Equal(qb) {
		t.Fatalf("certain answers differ across normalization strategies:\n%s\nvs\n%s", qa, qb)
	}
}
