package chase

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/paperex"
	"repro/internal/workload"
)

// equalStats compares chase stats modulo the worker counts (the only
// fields that legitimately differ between the sequential and parallel
// paths).
func equalStats(a, b Stats) bool {
	a.TGDWorkers, b.TGDWorkers = 0, 0
	a.EgdWorkers, b.EgdWorkers = 0, 0
	return a == b
}

// TestParallelCChaseEquivalence runs the benchmark scenarios in lockstep
// through the sequential chase and the partitioned parallel chase at
// several worker counts, asserting byte-identical solutions,
// byte-identical snapshots, and equal statistics.
func TestParallelCChaseEquivalence(t *testing.T) {
	type scenario struct {
		name string
		run  func(opts *Options) (*instance.Concrete, Stats, error)
		span interval.Time
	}
	emp := workload.Employment(workload.EmploymentConfig{Seed: 1, Persons: 60, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 120})
	med := workload.Medical(workload.MedicalConfig{Seed: 42, Patients: 60, Span: 80})
	taxi := workload.Taxi(workload.TaxiConfig{Seed: 7, Drivers: 50, Cabs: 20, Span: 60})
	scenarios := []scenario{
		{"employment", func(o *Options) (*instance.Concrete, Stats, error) {
			return Concrete(emp, paperex.EmploymentMapping(), o)
		}, 120},
		{"medical", func(o *Options) (*instance.Concrete, Stats, error) {
			return Concrete(med, workload.MedicalMapping(), o)
		}, 80},
		{"taxi", func(o *Options) (*instance.Concrete, Stats, error) {
			return Concrete(taxi, workload.TaxiMapping(), o)
		}, 60},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			seq, seqStats, err := sc.run(&Options{})
			if err != nil {
				t.Fatal(err)
			}
			if seqStats.TGDWorkers != 1 {
				t.Fatalf("sequential chase reports TGDWorkers = %d", seqStats.TGDWorkers)
			}
			want := seq.String()
			for _, workers := range []int{1, 2, 4, 8} {
				par, parStats, err := sc.run(&Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if workers > 1 && parStats.TGDWorkers != workers {
					t.Fatalf("workers=%d: parallel path did not engage (TGDWorkers=%d; input too small for the cutoff?)", workers, parStats.TGDWorkers)
				}
				if got := par.String(); got != want {
					t.Fatalf("workers=%d: solution differs from sequential chase\nseq:\n%s\npar:\n%s", workers, want, got)
				}
				if !equalStats(seqStats, parStats) {
					t.Fatalf("workers=%d: stats differ:\nseq: %+v\npar: %+v", workers, seqStats, parStats)
				}
				for _, at := range []interval.Time{0, sc.span / 3, sc.span / 2, sc.span - 1} {
					if a, b := seq.Snapshot(at).String(), par.Snapshot(at).String(); a != b {
						t.Fatalf("workers=%d: snapshot at %d differs:\nseq: %s\npar: %s", workers, at, a, b)
					}
				}
			}
		})
	}
}

// TestParallelCChaseEgdStress runs the egd-heavy stress workload (many
// merges, several rewrite rounds) in lockstep: the parallel tgd phase
// must hand the sequential egd phase a byte-identical target.
func TestParallelCChaseEgdStress(t *testing.T) {
	m := workload.EgdStressMapping(8)
	ic := workload.EgdStress(40, 8)
	seq, seqStats, err := Concrete(ic, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.String()
	for _, workers := range []int{2, 4, 8} {
		par, parStats, err := Concrete(ic, m, &Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := par.String(); got != want {
			t.Fatalf("workers=%d: solution differs from sequential chase", workers)
		}
		if !equalStats(seqStats, parStats) {
			t.Fatalf("workers=%d: stats differ:\nseq: %+v\npar: %+v", workers, seqStats, parStats)
		}
	}
}

// TestParallelCutoffFallsBack asserts that tiny inputs ignore the worker
// count: below the cutoff the freeze + fan-out overhead cannot pay off.
func TestParallelCutoffFallsBack(t *testing.T) {
	m := workload.EgdStressMapping(2)
	ic := workload.EgdStress(2, 2) // far below parallelCutoffFacts
	if ic.Len() >= parallelCutoffFacts {
		t.Fatalf("test instance too large: %d facts", ic.Len())
	}
	_, stats, err := Concrete(ic, m, &Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TGDWorkers != 1 {
		t.Fatalf("tiny input used %d tgd workers, want sequential fallback", stats.TGDWorkers)
	}
	if stats.EgdWorkers > 1 {
		t.Fatalf("tiny input used %d egd workers, want sequential fallback", stats.EgdWorkers)
	}
}
