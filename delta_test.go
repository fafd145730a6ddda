package tdx

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/workload"
)

// TestRunDeltaEquivalence is the public-API adjudicator of the
// incremental exchange: across random mappings and random base/delta
// splits, RunDelta over a retained base solution must be byte-identical
// — facts, null family ids, snapshots — to one Run over the combined
// source, whether it takes the semi-naive fast path or falls back to a
// full re-chase. The reported Diff must agree with the one computed
// directly from the two solutions.
func TestRunDeltaEquivalence(t *testing.T) {
	ctx := context.Background()
	trials, fastPaths := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := workload.RandomMapping(r)
		all := workload.RandomInstanceFor(r, m, 40+r.Intn(200))
		cut := all.Len() - (1 + r.Intn(7))
		if cut < 1 {
			cut = 1
		}
		parts := make([]*instance.Concrete, 3) // base, delta, full
		for i := range parts {
			parts[i] = instance.NewConcreteWith(m.Source, all.Interner())
		}
		i := 0
		all.EachFact(func(f fact.CFact) bool {
			if i < cut {
				parts[0].MustInsert(f)
			} else {
				parts[1].MustInsert(f)
			}
			parts[2].MustInsert(f)
			i++
			return true
		})

		ex, err := FromMapping(m)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		want, wantErr := ex.Run(ctx, NewInstance(parts[2]))
		baseSol, baseErr := ex.Run(ctx, NewInstance(parts[0]))
		if baseErr != nil {
			if wantErr == nil {
				t.Fatalf("seed %d: base run failed (%v) but combined run succeeded", seed, baseErr)
			}
			continue
		}
		got, diff, gotErr := ex.RunDelta(ctx, baseSol, NewInstance(parts[1]))
		trials++
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: RunDelta err = %v, combined Run err = %v", seed, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !got.Stats().FallbackFullChase {
			fastPaths++
		}
		if got.String() != want.String() {
			t.Fatalf("seed %d (fallback=%v): RunDelta diverges from combined Run\n--- delta ---\n%s\n--- full ---\n%s",
				seed, got.Stats().FallbackFullChase, got.String(), want.String())
		}
		if wantAdded := got.Diff(&baseSol.Instance); !diff.Added.Equal(wantAdded) {
			t.Fatalf("seed %d: Diff.Added disagrees with Instance.Diff", seed)
		}
		if wantRemoved := baseSol.Diff(&got.Instance); !diff.Removed.Equal(wantRemoved) {
			t.Fatalf("seed %d: Diff.Removed disagrees with Instance.Diff", seed)
		}
		// The next solution must itself be a valid delta base: chain an
		// empty delta and demand a no-op.
		again, d2, err := ex.RunDelta(ctx, got, NewInstance(instance.NewConcreteWith(m.Source, all.Interner())))
		if err != nil {
			t.Fatalf("seed %d: chained empty delta: %v", seed, err)
		}
		if again.String() != got.String() || d2.Added.Len() != 0 || d2.Removed.Len() != 0 {
			t.Fatalf("seed %d: chained empty delta was not a no-op", seed)
		}
	}
	if trials == 0 {
		t.Fatal("no trial exercised RunDelta")
	}
	if fastPaths == 0 {
		t.Fatal("every trial fell back to a full re-chase; the incremental path was never exercised")
	}
	t.Logf("RunDelta equivalence: %d trials, %d fast paths", trials, fastPaths)
}

// TestRunDeltaEmployment pins the paper's running example end to end: a
// new hire arrives after the base exchange ran. The delta must take the
// fast path, fire both tgds, resolve the invented salary null against
// the delta S fact via the key egd, and report exactly the new
// employment fact as added.
func TestRunDeltaEmployment(t *testing.T) {
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
	delta, err := ex.ParseSource("E(Carol, IBM) @ [2015, 2019)\nS(Carol, 21k) @ [2015, 2019)")
	if err != nil {
		t.Fatal(err)
	}
	got, diff, err := ex.RunDelta(ctx, sol, delta)
	if err != nil {
		t.Fatal(err)
	}
	stats := got.Stats()
	if stats.FallbackFullChase {
		t.Fatalf("new-hire delta fell back to a full re-chase: %+v", stats)
	}
	if stats.DeltaFacts != 2 {
		t.Fatalf("DeltaFacts = %d, want 2", stats.DeltaFacts)
	}
	if stats.DeltaFires < 2 {
		t.Fatalf("DeltaFires = %d, want >= 2 (sigma1 and sigma2 both touch Carol)", stats.DeltaFires)
	}
	if !strings.Contains(diff.Added.String(), "Emp(Carol, IBM, 21k") {
		t.Fatalf("Diff.Added misses Carol's resolved employment:\n%s", diff.Added)
	}
	if diff.Removed.Len() != 0 {
		t.Fatalf("a purely additive delta removed facts:\n%s", diff.Removed)
	}

	// Byte-identity against one run over the combined source.
	combined, err := ex.ParseSource(readTestdata(t, "employment.facts") +
		"\nE(Carol, IBM) @ [2015, 2019)\nS(Carol, 21k) @ [2015, 2019)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.Run(ctx, combined)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("RunDelta diverges from combined Run\n--- delta ---\n%s\n--- full ---\n%s", got, want)
	}
	// The delta solution answers queries like any other.
	ans, err := ex.Query(ctx, got, "q")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.String(), "Carol") {
		t.Fatalf("certain answers miss the new hire:\n%s", ans)
	}
}

// TestRunDeltaChainDepth: a session-length chain of 32 RunDelta calls
// over the employment base, one hire per delta. Each delta run interns
// into an overlay on its base run's interner, and a chain deeper than 2
// is flattened before the next overlay, so no solution's interner chain
// exceeds 3 levels — and each solution is byte-identical to a full Run
// over the base plus the deltas so far.
func TestRunDeltaChainDepth(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "employment.tdx")
	text := readTestdata(t, "employment.facts")
	src, err := ex.ParseSource(text)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	companies := []string{"IBM", "Google", "Acme"}
	fastPaths := 0
	for i := 0; i < 32; i++ {
		hire := fmt.Sprintf("E(Hire%d, %s) @ [%d, %d)\nS(Hire%d, %dk) @ [%d, %d)",
			i, companies[i%3], 2010+i%6, 2016+i%5, i, 20+i, 2011+i%6, 2017+i%5)
		delta, err := ex.ParseSource(hire)
		if err != nil {
			t.Fatal(err)
		}
		if sol, _, err = ex.RunDelta(ctx, sol, delta); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if !sol.Stats().FallbackFullChase {
			fastPaths++
		}
		if d := sol.Concrete().Interner().Depth(); d > 3 {
			t.Fatalf("delta %d: the solution's interner chain is %d levels deep, want at most 3", i, d)
		}
		text += "\n" + hire
		full, err := ex.ParseSource(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ex.Run(ctx, full)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sol.JSON()
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("delta %d (fallback=%v): RunDelta diverges from a full Run\n--- delta ---\n%s\n--- full ---\n%s",
				i, sol.Stats().FallbackFullChase, got, wantJSON)
		}
	}
	if fastPaths == 0 {
		t.Fatal("every delta fell back to a full re-chase; the delta overlays were never exercised")
	}
	t.Logf("32 deltas, %d fast paths", fastPaths)
}

// TestRunDeltaTemporalFallback pins the §7 path: temporal mappings
// retain no incremental state, so RunDelta transparently re-chases the
// combined source and says so in Stats.
func TestRunDeltaTemporalFallback(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "phd.tdx")
	src, err := ex.ParseSource(readTestdata(t, "phd.facts"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := ex.ParseSource("PhDgrad(bob) @ [2018, 2019)")
	if err != nil {
		t.Fatal(err)
	}
	got, diff, err := ex.RunDelta(ctx, sol, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats().FallbackFullChase {
		t.Fatal("temporal RunDelta claimed an incremental run")
	}
	if got.Stats().DeltaFacts != 1 {
		t.Fatalf("DeltaFacts = %d, want 1", got.Stats().DeltaFacts)
	}
	combined, err := ex.ParseSource(readTestdata(t, "phd.facts") + "\nPhDgrad(bob) @ [2018, 2019)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.Run(ctx, combined)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("temporal RunDelta diverges from combined Run\n--- delta ---\n%s\n--- full ---\n%s", got, want)
	}
	if diff.Added.Len() == 0 {
		t.Fatal("bob's graduation produced no new target facts")
	}
}

// TestRunDeltaNilBase pins the error contract for solutions that cannot
// serve as a delta base.
func TestRunDeltaNilBase(t *testing.T) {
	ex := compileTestdata(t, "employment.tdx")
	delta, err := ex.ParseSource("E(Carol, IBM) @ [2015, 2019)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunDelta(context.Background(), nil, delta); err == nil {
		t.Fatal("RunDelta accepted a nil base solution")
	}
}
