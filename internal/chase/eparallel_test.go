package chase

import (
	"fmt"
	"testing"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/normalize"
	"repro/internal/paperex"
	"repro/internal/value"
	"repro/internal/workload"
)

// tgdOnlyTarget materializes the state the egd phase starts from: the
// target right after the tgd phase, produced by chasing a copy of the
// mapping with its egds stripped.
func tgdOnlyTarget(t testing.TB, m *dependency.Mapping, ic *instance.Concrete) *instance.Concrete {
	t.Helper()
	tgdOnly := &dependency.Mapping{Source: m.Source, Target: m.Target, TGDs: m.TGDs}
	tgt, _, err := Concrete(ic, tgdOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestParallelEgdPhaseEquivalence drives the standalone egd phase over
// pre-built tgd-phase targets in lockstep at several worker counts:
// byte-identical outputs, equal stats modulo the worker fields, and the
// parallel path actually engaged.
func TestParallelEgdPhaseEquivalence(t *testing.T) {
	type scenario struct {
		name string
		m    *dependency.Mapping
		ic   *instance.Concrete
	}
	scenarios := []scenario{
		{"egd-stress", workload.EgdStressMapping(8), workload.EgdStress(40, 8)},
		{"taxi", workload.TaxiMapping(), workload.Taxi(workload.TaxiConfig{Seed: 7, Drivers: 50, Cabs: 20, Span: 60})},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			tgt := tgdOnlyTarget(t, sc.m, sc.ic)
			if tgt.Len() < parallelCutoffFacts {
				t.Fatalf("target too small to engage the parallel path: %d facts", tgt.Len())
			}
			cm, err := CompileMapping(sc.m)
			if err != nil {
				t.Fatal(err)
			}
			seq, seqStats, err := EgdPhase(tgt, cm, &Options{})
			if err != nil {
				t.Fatal(err)
			}
			if seqStats.EgdWorkers != 1 {
				t.Fatalf("sequential egd phase reports EgdWorkers = %d", seqStats.EgdWorkers)
			}
			want := seq.String()
			for _, workers := range []int{1, 2, 4, 8} {
				par, parStats, err := EgdPhase(tgt, cm, &Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if workers > 1 && parStats.EgdWorkers != workers {
					t.Fatalf("workers=%d: parallel egd phase did not engage (EgdWorkers=%d)", workers, parStats.EgdWorkers)
				}
				if got := par.String(); got != want {
					t.Fatalf("workers=%d: egd phase output differs from sequential\nseq:\n%s\npar:\n%s", workers, want, got)
				}
				if !equalStats(seqStats, parStats) {
					t.Fatalf("workers=%d: stats differ:\nseq: %+v\npar: %+v", workers, seqStats, parStats)
				}
			}
		})
	}
}

// TestParallelEgdStepwiseEquivalence pins the stepwise strategy: its
// scans re-search after every merge and stay sequential, but the
// renormalization still fans out — output must stay byte-identical.
func TestParallelEgdStepwiseEquivalence(t *testing.T) {
	m := workload.EgdStressMapping(6)
	ic := workload.EgdStress(30, 6)
	seq, seqStats, err := Concrete(ic, m, &Options{Egd: EgdStepwise})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.String()
	for _, workers := range []int{2, 4, 8} {
		par, parStats, err := Concrete(ic, m, &Options{Egd: EgdStepwise, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := par.String(); got != want {
			t.Fatalf("workers=%d: stepwise solution differs from sequential", workers)
		}
		if !equalStats(seqStats, parStats) {
			t.Fatalf("workers=%d: stats differ:\nseq: %+v\npar: %+v", workers, seqStats, parStats)
		}
	}
}

// TestParallelEgdNaiveEquivalence pins the Naive normalization strategy,
// whose egd rounds skip renormalization but still scan in parallel.
func TestParallelEgdNaiveEquivalence(t *testing.T) {
	m := workload.EgdStressMapping(6)
	ic := workload.EgdStress(30, 6)
	seq, seqStats, err := Concrete(ic, m, &Options{Norm: normalize.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.String()
	for _, workers := range []int{2, 4, 8} {
		par, parStats, err := Concrete(ic, m, &Options{Norm: normalize.StrategyNaive, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := par.String(); got != want {
			t.Fatalf("workers=%d: naive-strategy solution differs from sequential", workers)
		}
		if !equalStats(seqStats, parStats) {
			t.Fatalf("workers=%d: stats differ:\nseq: %+v\npar: %+v", workers, seqStats, parStats)
		}
	}
}

// snapshotStressSource builds a per-snapshot source for
// EgdStressMapping(k): the same group structure, interval-free.
func snapshotStressSource(groups, k int) *instance.Snapshot {
	src := instance.NewSnapshot()
	for g := 0; g < groups; g++ {
		name := fmt.Sprintf("p%d", g)
		for i := 0; i < k; i++ {
			src.Insert(fact.New(fmt.Sprintf("E%d", i), paperex.C(name), paperex.C("co")))
		}
	}
	return src
}

// TestParallelSnapshotEgdEquivalence runs the per-snapshot chase — the
// abstract chase's building block — in lockstep: the snapshot egd rounds
// also take Options.Workers.
func TestParallelSnapshotEgdEquivalence(t *testing.T) {
	m := workload.EgdStressMapping(8)
	src := snapshotStressSource(40, 8)
	iv := interval.MustNew(0, interval.Infinity)
	cm, err := CompileMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts *Options) (*instance.Snapshot, Stats, error) {
		gen := &value.NullGen{}
		return snapshot(src, cm, func() value.Value { return gen.FreshAnn(iv) }, opts)
	}
	seq, seqStats, err := run(&Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.EgdWorkers != 1 {
		t.Fatalf("sequential snapshot chase reports EgdWorkers = %d", seqStats.EgdWorkers)
	}
	want := seq.String()
	for _, workers := range []int{1, 2, 4, 8} {
		par, parStats, err := run(&Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers > 1 && parStats.EgdWorkers != workers {
			t.Fatalf("workers=%d: parallel snapshot egd rounds did not engage (EgdWorkers=%d)", workers, parStats.EgdWorkers)
		}
		if got := par.String(); got != want {
			t.Fatalf("workers=%d: snapshot chase differs from sequential\nseq:\n%s\npar:\n%s", workers, want, got)
		}
		if !equalStats(seqStats, parStats) {
			t.Fatalf("workers=%d: stats differ:\nseq: %+v\npar: %+v", workers, seqStats, parStats)
		}
	}
}
