package tdx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// TestSolutionSnapshotRoundTrip is the snapshot subsystem's end-to-end
// property: over many seeded employment workloads — whose egd merges
// leave dead rows in the validity bitmap — a solution written to a
// snapshot file and loaded back must be indistinguishable from the
// original in every rendering: Facts, JSON, per-time-point snapshots,
// per-fact data hashes, and the re-encoded snapshot bytes themselves.
func TestSolutionSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	ex := MustCompile(employmentMappingText)
	dir := t.TempDir()
	sawDeadRows := false
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := NewInstance(workload.Employment(workload.EmploymentConfig{
				Seed: seed + 1, Persons: 20 + int(seed)*7, JobsPerPerson: 3,
				SalaryCoverage: 0.6, Span: 80,
			}))
			sol, err := ex.Run(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats().EgdMerges > 0 {
				sawDeadRows = true
			}

			path := filepath.Join(dir, fmt.Sprintf("s%d.snap", seed))
			if err := sol.WriteSnapshotFile(path); err != nil {
				t.Fatalf("WriteSnapshotFile: %v", err)
			}
			loaded, err := ex.LoadSolution(path)
			if err != nil {
				t.Fatalf("LoadSolution: %v", err)
			}

			if w, g := sol.Facts(), loaded.Facts(); w != g {
				t.Fatalf("Facts differ:\nwant:\n%s\ngot:\n%s", w, g)
			}
			wj, err1 := sol.JSON()
			gj, err2 := loaded.JSON()
			if err1 != nil || err2 != nil {
				t.Fatalf("JSON: %v / %v", err1, err2)
			}
			if !bytes.Equal(wj, gj) {
				t.Fatalf("JSON renderings differ")
			}
			for _, at := range []Time{0, 7, 40, 79} {
				w := sol.Snapshot(at).Store().String()
				g := loaded.Snapshot(at).Store().String()
				if w != g {
					t.Fatalf("Snapshot(%d) differs:\nwant:\n%s\ngot:\n%s", at, w, g)
				}
			}
			wf, gf := sol.c.Facts(), loaded.c.Facts()
			if len(wf) != len(gf) {
				t.Fatalf("fact counts differ: %d vs %d", len(wf), len(gf))
			}
			for i := range wf {
				if wf[i].DataHash() != gf[i].DataHash() {
					t.Fatalf("DataHash differs at fact %d: %v vs %v", i, wf[i], gf[i])
				}
			}
			if sol.Stats() != loaded.Stats() {
				t.Fatalf("stats differ: %+v vs %+v", sol.Stats(), loaded.Stats())
			}

			// The loaded solution re-saves byte-identically.
			var orig, again bytes.Buffer
			if err := sol.WriteSnapshot(&orig); err != nil {
				t.Fatal(err)
			}
			if err := loaded.WriteSnapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(orig.Bytes(), again.Bytes()) {
				t.Fatalf("re-encoded snapshot differs (%d vs %d bytes)", orig.Len(), again.Len())
			}

			// The embedded source came back intact.
			if w, g := src.Facts(), loaded.src.Facts(); w != g {
				t.Fatalf("embedded source differs")
			}
		})
	}
	if !sawDeadRows {
		t.Fatalf("no seed produced egd merges; the round-trip never saw dead rows")
	}
}

// TestLoadedSolutionRunDelta checks the documented resume semantics: a
// loaded solution supports RunDelta through the full-rechase fallback
// and produces facts byte-identical to a delta over the original.
func TestLoadedSolutionRunDelta(t *testing.T) {
	ctx := context.Background()
	ex := MustCompile(employmentMappingText)
	src := NewInstance(workload.Employment(workload.EmploymentConfig{
		Seed: 3, Persons: 40, JobsPerPerson: 3, SalaryCoverage: 0.6, Span: 80,
	}))
	sol, err := ex.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := sol.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ex.LoadSolution(path)
	if err != nil {
		t.Fatal(err)
	}

	delta, err := ex.ParseSource("E(newhire, acme) @ [10, 20)")
	if err != nil {
		t.Fatal(err)
	}
	fastSol, _, err := ex.RunDelta(ctx, sol, delta)
	if err != nil {
		t.Fatal(err)
	}
	if fastSol.Stats().FallbackFullChase {
		t.Fatalf("original solution lost its chase state")
	}
	slowSol, _, err := ex.RunDelta(ctx, loaded, delta.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !slowSol.Stats().FallbackFullChase {
		t.Fatalf("loaded solution should re-chase via the fallback path")
	}
	if w, g := fastSol.Facts(), slowSol.Facts(); w != g {
		t.Fatalf("delta over loaded solution differs:\nwant:\n%s\ngot:\n%s", w, g)
	}
	// The fallback self-heals: the next delta takes the fast path again.
	delta2, err := ex.ParseSource("E(newhire2, acme) @ [30, 40)")
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := ex.RunDelta(ctx, slowSol, delta2)
	if err != nil {
		t.Fatal(err)
	}
	if next.Stats().FallbackFullChase {
		t.Fatalf("second delta over a loaded solution should be incremental")
	}
}

// TestLoadSolutionWrongMapping asserts structural validation: loading a
// snapshot against an exchange whose target schema does not declare the
// snapshot's relations fails instead of producing garbage.
func TestLoadSolutionWrongMapping(t *testing.T) {
	ctx := context.Background()
	ex := MustCompile(employmentMappingText)
	src := NewInstance(workload.Employment(workload.DefaultEmployment()))
	sol, err := ex.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := sol.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	other := MustCompile(`
source schema { A(x) }
target schema { B(x) }
tgd t: A(x) -> B(x)
`)
	if _, err := other.LoadSolution(path); err == nil {
		t.Fatal("loading against a mapping without the snapshot's relations succeeded")
	}

	// Same relation name, different arity: also rejected.
	narrower := MustCompile(`
source schema { X(a) }
target schema { Emp(name, company) }
tgd t: X(a) -> Emp(a, a)
`)
	if _, err := narrower.LoadSolution(path); err == nil {
		t.Fatal("loading against a narrower Emp arity succeeded")
	}

	if _, err := ex.LoadSolution(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestLoadSolutionCorrupt double-checks that corruption surfaces through
// the public API as an error, not a panic or a silent load.
func TestLoadSolutionCorrupt(t *testing.T) {
	ctx := context.Background()
	ex := MustCompile(employmentMappingText)
	sol, err := ex.Run(ctx, NewInstance(workload.Employment(workload.DefaultEmployment())))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sol.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x40
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.LoadSolution(path); err == nil {
		t.Fatal("corrupt snapshot loaded successfully")
	} else if errors.Is(err, context.Canceled) {
		t.Fatal("unexpected error kind")
	}
}

// TestSnapshotFileStable pins the snapshot bytes across versions, since a
// warm-started tdxd reads files that an older binary wrote. The checked-in
// testdata/employment.snap was written by
//
//	go run ./cmd/tdx chase -m testdata/employment.tdx -d testdata/employment.facts -save testdata/employment.snap
//
// LoadSolution must read it as the live run's solution, and writing the
// live run's snapshot must reproduce the file byte for byte.
func TestSnapshotFileStable(t *testing.T) {
	const fixture = "testdata/employment.snap"
	mapping, err := os.ReadFile("testdata/employment.tdx")
	if err != nil {
		t.Fatal(err)
	}
	facts, err := os.ReadFile("testdata/employment.facts")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	ex := MustCompile(string(mapping))
	src, err := ex.ParseSource(string(facts))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := ex.LoadSolution(fixture)
	if err != nil {
		t.Fatalf("LoadSolution: %v", err)
	}
	if w, g := sol.Facts(), loaded.Facts(); w != g {
		t.Fatalf("loaded facts differ:\nwant:\n%s\ngot:\n%s", w, g)
	}
	wj, err1 := sol.JSON()
	gj, err2 := loaded.JSON()
	if err1 != nil || err2 != nil {
		t.Fatalf("JSON: %v / %v", err1, err2)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("loaded JSON differs:\nwant:\n%s\ngot:\n%s", wj, gj)
	}

	path := filepath.Join(t.TempDir(), "employment.snap")
	if err := sol.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes differ from %s: %d bytes, want %d", fixture, len(got), len(want))
	}
}
