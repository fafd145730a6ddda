package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{500, 0.99, 0},
		{200, 0.95, 190},
		{199, 0.95, 0},
		{1, 0.5, 0},
		{21, 0.5, 11},
	} {
		got, err := percentile(samples(tc.n), tc.p)
		switch {
		case tc.want == 0 && !errors.Is(err, errTooFewSamples):
			t.Errorf("p%g of %d samples: got %v, %v; want refusal", 100*tc.p, tc.n, got, err)
		case tc.want != 0 && (err != nil || got != tc.want):
			t.Errorf("p%g of %d samples: got %v, %v; want %v", 100*tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricsMatchBenchmarkJSON keeps the emitted metrics and workloads
// in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, emitted %v", e2e, e2eMetrics)
	}
	if !slices.Equal(layers, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, emitted %v", layers, layerMetrics)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
	for _, d := range append(slices.Clone(e2eMetrics), layerMetrics...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
	}
}

// inputs renders a workload's requests for comparison.
func inputs(t *testing.T, name string, seed int64) [][]byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	if w.session != nil {
		out := [][]byte{w.session.baseBody}
		for _, s := range w.session.scripts {
			for _, d := range s {
				out = append(out, d.body)
			}
		}
		return out
	}
	return [][]byte{w.body(0), w.body(1), w.body(77)}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := inputs(t, name, 1), inputs(t, name, 1), inputs(t, name, 2)
		if !slices.EqualFunc(a, b, bytes.Equal) {
			t.Errorf("%s: seed 1 generated different inputs twice", name)
		}
		if slices.EqualFunc(a, c, bytes.Equal) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
		if bytes.Equal(a[0], a[1]) {
			t.Errorf("%s: two requests share a body", name)
		}
	}
}

func TestSessionScriptsMixFastAndFallbackDeltas(t *testing.T) {
	w, err := newWorkload("session-delta", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.session.scripts {
		salary, solution := 0, 0
		for _, d := range s {
			if d.salary {
				salary++
			}
			if d.solution {
				solution++
			}
		}
		if salary != deltasPerOpen/4 || solution != deltasPerOpen/solutionEveryN {
			t.Fatalf("script has %d salary and %d ?solution=true deltas", salary, solution)
		}
	}
}

// TestSmoke drives every workload through a short window and the traced
// replay against a freshly built tdxd: every request must succeed and
// every checked response must match the in-process result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots tdxd")
	}
	bin := filepath.Join(t.TempDir(), "tdxd")
	if err := buildTdxd("..", bin); err != nil {
		t.Fatal(err)
	}
	cfg := config{tdxd: bin, window: time.Second, trace: true, setups: 1, replayOps: 8}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runWorkload(cfg, w)
		if err != nil && !errors.Is(err, errTooFewSamples) {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("%s: %d of %d requests failed: %v", name, res.Failed, res.Attempted, res.Errors)
		}
		for _, d := range layerMetrics {
			if _, ok := res.Layers[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", name, d.name)
			}
		}
		if len(res.Layers) != len(layerMetrics) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", name, len(res.Layers), len(layerMetrics))
		}
	}
}
