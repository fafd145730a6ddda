package tdx

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// empSource builds an employment source of a few hundred facts.
func empSource(seed int64) *Instance {
	return NewInstance(workload.Employment(workload.EmploymentConfig{
		Seed: seed, Persons: 80, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 150,
	}))
}

// relEpochs snapshots the mutation epoch of every relation of an
// instance.
func relEpochs(i *Instance) map[string]uint64 {
	out := make(map[string]uint64)
	st := i.Concrete().Store()
	for _, name := range st.Relations() {
		out[name] = st.Rel(name).Epoch()
	}
	return out
}

// TestFrozenInstanceSharedByConcurrentRuns is the freeze acceptance
// test: one frozen source instance is probed by 16 goroutines — full
// concurrent Runs, queries, snapshots, renders — under -race, with every
// relation's epoch asserted unchanged, and a write to the frozen
// instance panics with a clear message.
func TestFrozenInstanceSharedByConcurrentRuns(t *testing.T) {
	ex := MustCompile(employmentMappingText)
	ctx := context.Background()
	src := empSource(1).Freeze()
	if !src.Frozen() {
		t.Fatal("Freeze did not mark the instance frozen")
	}
	before := relEpochs(src)

	ref, err := ex.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Facts()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol, err := ex.Run(ctx, src)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if got := sol.Facts(); got != want {
				t.Errorf("goroutine %d: solution differs from reference", g)
			}
			if src.Snapshot(10).Len() == 0 {
				t.Errorf("goroutine %d: empty snapshot of the source", g)
			}
			if src.Facts() == "" || !src.IsComplete() {
				t.Errorf("goroutine %d: source render broke", g)
			}
			if _, err := ex.Query(ctx, sol, "q"); err != nil {
				t.Errorf("goroutine %d: query: %v", g, err)
			}
		}()
	}
	wg.Wait()

	after := relEpochs(src)
	for name, e := range before {
		if after[name] != e {
			t.Fatalf("relation %s epoch moved %d -> %d: a frozen instance was mutated", name, e, after[name])
		}
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("writing to a frozen instance did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "frozen") {
			t.Fatalf("frozen-write panic %v does not mention the freeze", r)
		}
	}()
	src.Concrete().Store().Insert("E", nil)
}

// TestSolutionConcurrentReads is the satellite regression test: 8
// goroutines read one Solution through every accessor — Facts, Table,
// JSON, String, Snapshot, Query, Diff — under -race. Before the freeze
// these raced on lazily decoded tuples.
func TestSolutionConcurrentReads(t *testing.T) {
	ex := MustCompile(employmentMappingText)
	ctx := context.Background()
	sol, err := ex.Run(ctx, empSource(2))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Frozen() {
		t.Fatal("Run returned an unfrozen solution")
	}
	wantFacts, wantTable := sol.Facts(), sol.Table()
	wantJSON, err := sol.JSON()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if got := sol.Facts(); got != wantFacts {
					t.Errorf("goroutine %d: Facts diverged", g)
				}
				if got := sol.Table(); got != wantTable {
					t.Errorf("goroutine %d: Table diverged", g)
				}
				data, err := sol.JSON()
				if err != nil || string(data) != string(wantJSON) {
					t.Errorf("goroutine %d: JSON diverged (%v)", g, err)
				}
				snap, err := ex.Snapshot(ctx, sol, 20)
				if err != nil || snap.Len() == 0 {
					t.Errorf("goroutine %d: snapshot: %v", g, err)
				}
				if _, err := ex.Query(ctx, sol, "q"); err != nil {
					t.Errorf("goroutine %d: query: %v", g, err)
				}
				if d := sol.Diff(&sol.Instance); d.Len() != 0 {
					t.Errorf("goroutine %d: self-diff not empty", g)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunFreezesSource asserts the publish-on-Run lifecycle: a source
// handed to Run comes back frozen, further Runs on it succeed, and
// mutating it panics while a Clone stays mutable.
func TestRunFreezesSource(t *testing.T) {
	ex := MustCompile(employmentMappingText)
	ctx := context.Background()
	src := empSource(3)
	if src.Frozen() {
		t.Fatal("fresh instance already frozen")
	}
	if _, err := ex.Run(ctx, src); err != nil {
		t.Fatal(err)
	}
	if !src.Frozen() {
		t.Fatal("Run did not freeze its source")
	}
	if _, err := ex.Run(ctx, src); err != nil {
		t.Fatalf("second Run on the frozen source: %v", err)
	}
	cl := src.Clone()
	if cl.Frozen() {
		t.Fatal("clone of a frozen instance is frozen")
	}
}

// TestRunLeavesSourceInternerAlone: every run interns what it creates
// into its own overlay on its source's frozen interner, so three Runs, a
// RunDelta chain, a Query and a Coalesce over one frozen source leave
// the source's interner as it was, and each solution equals the one a
// Run over a freshly parsed copy of its source produces.
func TestRunLeavesSourceInternerAlone(t *testing.T) {
	ex := MustCompile(employmentMappingText)
	ctx := context.Background()
	text := empSource(4).Facts()
	fresh := func(facts string) string {
		t.Helper()
		src, err := ex.ParseSource(facts)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ex.Run(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		return sol.Facts()
	}
	src, err := ex.ParseSource(text)
	if err != nil {
		t.Fatal(err)
	}
	in := src.Freeze().Concrete().Interner()
	n := in.Len()
	unchanged := func(step string) {
		t.Helper()
		if in.Len() != n {
			t.Fatalf("%s grew the source's interner %d -> %d", step, n, in.Len())
		}
	}

	want := fresh(text)
	var sol *Solution
	for i := 0; i < 3; i++ {
		if sol, err = ex.Run(ctx, src); err != nil {
			t.Fatal(err)
		}
		if sol.Facts() != want {
			t.Fatalf("run %d differs from a run over a freshly parsed source", i)
		}
		unchanged(fmt.Sprintf("run %d", i))
	}
	if _, err := ex.Query(ctx, sol, "q"); err != nil {
		t.Fatal(err)
	}
	unchanged("Query")
	sol.Coalesce()
	unchanged("Coalesce")

	cur, combined := sol, text
	for i, d := range []string{
		"E(Newa, Acme) @ [10, 40)\nS(Newa, 31k) @ [12, 40)",
		"E(Newb, Initech) @ [5, 90)",
		"S(Newb, 44k) @ [5, 60)\nE(Newa, Initech) @ [40, 70)",
	} {
		delta, err := ex.ParseSource(d)
		if err != nil {
			t.Fatal(err)
		}
		if cur, _, err = ex.RunDelta(ctx, cur, delta); err != nil {
			t.Fatal(err)
		}
		combined += "\n" + d
		if cur.Facts() != fresh(combined) {
			t.Fatalf("delta %d differs from a run over a freshly parsed source", i)
		}
		unchanged(fmt.Sprintf("delta %d", i))
	}
}
