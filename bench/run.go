package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// config is one benchmark invocation's settings.
type config struct {
	tdxd      string        // tdxd binary
	window    time.Duration // measured closed-loop window per workload
	trace     bool          // also run the traced per-layer replay
	setups    int           // set-ups per workload; setup_s is their median
	replayOps int           // requests the traced replay repeats
}

// clients is the closed loop's width: one client per CPU of the 2-CPU
// machine the benchmark was defined on, each on one keep-alive
// connection, all from this process.
const clients = 2

// result is one workload's outcome.
type result struct {
	Sizes     map[string]int   `json:"sizes"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"samples"` // measured requests that succeeded in the window
	SetupRuns []float64        `json:"setup_runs_s"`
	Errors    []string         `json:"errors,omitempty"`
	RefMs     []float64        `json:"reference_ms"`     // every reference timing's wall time, in order
	RefCPUMs  []float64        `json:"reference_cpu_ms"` // and the CPU time it took
	Raw       map[string]value `json:"raw_end_to_end"`   // the end-to-end metrics without scaling
	E2E       map[string]value `json:"end_to_end"`
	Layers    map[string]value `json:"per_layer,omitempty"`
	spans     []span
}

func (r *result) count(t tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.Errors = append(r.Errors, t.errs...)
	if len(r.Errors) > maxErrs {
		r.Errors = r.Errors[:maxErrs]
	}
}

// live is a booted daemon with the workload's mapping registered, its
// clients and their actors, warmed up.
type live struct {
	d       *daemon
	hash    string
	clients []*client
	actors  []actor
	log     *solutionLog
	warm    tally
}

func (l *live) stop() {
	for _, c := range l.clients {
		c.close()
	}
	l.d.stop()
}

// setUp boots tdxd, registers the mapping and warms up: caches filled,
// sessions open, lazy start-up work done.
func setUp(cfg config, w *workload) (*live, error) {
	d, err := startDaemon(cfg.tdxd)
	if err != nil {
		return nil, err
	}
	l := &live{d: d, log: &solutionLog{}}
	for i := 0; i < clients; i++ {
		l.clients = append(l.clients, newClient(d.base))
	}
	if l.hash, err = l.clients[0].register(w.mapping.text()); err != nil {
		l.stop()
		return nil, err
	}
	var ids, opens atomic.Int64
	for range l.clients {
		if w.session != nil {
			l.actors = append(l.actors, &sessionActor{p: w.session, hash: l.hash, opens: &opens, record: l.log})
		} else {
			l.actors = append(l.actors, &runActor{w: w, hash: l.hash, ids: &ids})
		}
	}
	// A warm-up that keeps failing gives up after a bounded number of
	// attempts instead of spinning.
	limit := int64(4*w.warmup + 20)
	l.warm = drive(l.clients, l.actors, func(measured, attempted int64) bool {
		return measured >= int64(w.warmup) || attempted >= limit
	})
	return l, nil
}

// loadSlice is one load slice of the window.
type loadSlice struct {
	t    tally
	cpu  time.Duration // tdxd CPU time spent in the slice
	slow speed         // how the machine ran around it
}

// runWorkload measures one workload: set-ups, the closed-loop window,
// the post-window checks and, when tracing, the per-layer replay.
//
// Reference timings bracket every set-up and every load slice (see
// calibrate.go); each is scaled by the mean of the two timings around
// it.
func runWorkload(cfg config, w *workload) (*result, error) {
	name := w.name
	res := &result{Sizes: w.sizes}
	record := func() {
		t := timeReference()
		res.RefMs = append(res.RefMs, float64(t.wall)/float64(time.Millisecond))
		res.RefCPUMs = append(res.RefCPUMs, float64(t.cpu)/float64(time.Millisecond))
	}
	ref := func() speed {
		record()
		n := len(res.RefMs)
		return speed{
			wall: (res.RefMs[n-2] + res.RefMs[n-1]) / 2 / (float64(refNominal) / float64(time.Millisecond)),
			cpu:  (res.RefCPUMs[n-2] + res.RefCPUMs[n-1]) / 2 / (float64(refNominalCPU) / float64(time.Millisecond)),
		}
	}
	record()

	var (
		l      *live
		setups []float64 // scaled
	)
	for i := 0; i < cfg.setups; i++ {
		if l != nil {
			l.stop()
		}
		start := time.Now()
		var err error
		if l, err = setUp(cfg, w); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		took := time.Since(start).Seconds()
		res.SetupRuns = append(res.SetupRuns, took)
		setups = append(setups, took/ref().wall)
		res.count(l.warm)
	}
	defer l.stop()

	before, err := l.clients[0].metrics()
	if err != nil {
		return nil, err
	}
	var (
		win    tally
		slices = make([]loadSlice, max(1, int(cfg.window/(slice+refNominal))))
	)
	for i := range slices {
		cpu0, err := l.d.cpu()
		if err != nil {
			return nil, err
		}
		end := time.Now().Add(slice)
		t := drive(l.clients, l.actors, func(int64, int64) bool { return time.Now().After(end) })
		cpu1, err := l.d.cpu()
		if err != nil {
			return nil, err
		}
		slices[i] = loadSlice{t: t, cpu: cpu1 - cpu0, slow: ref()}
		win.merge(t)
	}
	rss, err := l.d.peakRSS()
	if err != nil {
		return nil, err
	}
	after, err := l.clients[0].metrics()
	if err != nil {
		return nil, err
	}
	for i, a := range l.actors {
		if err := a.finish(l.clients[i]); err != nil {
			win.fail(err.Error())
		}
	}
	if w.session != nil {
		wrong, err := l.log.verify(w)
		if err != nil {
			return nil, err
		}
		for i := 0; i < wrong; i++ {
			win.fail("a ?solution=true document differs from a fresh run over the base and its deltas")
		}
	}
	res.count(win)
	res.Samples = len(win.latencies)

	if cfg.trace {
		layers := map[string]float64{
			"server.inflight_high_water": after["tdxd_inflight_chases_high_water"],
		}
		if win.runs > 0 {
			hits := after["tdxd_source_cache_hits_total"] - before["tdxd_source_cache_hits_total"]
			layers["server.source_cache_hit_frac"] = hits / float64(win.runs)
		}
		rp, err := newReplayer(w, l.clients[0], l.hash)
		if err != nil {
			return nil, err
		}
		res.count(rp.replay(cfg.replayOps))
		for k, v := range rp.medians() {
			layers[k] = v
		}
		res.Layers = fill(layerMetrics, layers)
		res.spans = rp.tr.spans
	}

	// The latency percentiles come last: a window too short for them
	// still returns the counts and the replay.
	raw, err := windowMetrics(slices, false)
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	scaled, err := windowMetrics(slices, true)
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	raw["setup_s"], raw["peak_rss_mb"] = median(res.SetupRuns), rss
	scaled["setup_s"], scaled["peak_rss_mb"] = median(setups), rss
	res.Raw = fill(e2eMetrics, raw)
	res.E2E = fill(e2eMetrics, scaled)
	return res, nil
}

// windowMetrics computes the window's throughput, latency percentiles
// and CPU per request, each slice scaled to nominal machine speed when
// scale is set. Throughput and CPU are medians over slices; latencies
// are percentiles over every request.
func windowMetrics(slices []loadSlice, scale bool) (map[string]float64, error) {
	var thr, cpu, lat []float64
	for _, s := range slices {
		ok := len(s.t.latencies)
		if ok == 0 {
			continue
		}
		slow := speed{wall: 1, cpu: 1}
		if scale {
			slow = s.slow
		}
		thr = append(thr, float64(ok)/s.t.elapsed.Seconds()*slow.wall)
		cpu = append(cpu, float64(s.cpu)/float64(time.Millisecond)/float64(ok)/slow.cpu)
		for _, d := range s.t.latencies {
			lat = append(lat, float64(d)/float64(time.Millisecond)/slow.wall)
		}
	}
	m := map[string]float64{"throughput_ops": median(thr), "cpu_ms_per_op": median(cpu)}
	var err error
	if m["latency_p50_ms"], err = percentile(lat, 0.50); err != nil {
		return nil, fmt.Errorf("latency p50: %w", err)
	}
	if m["latency_p95_ms"], err = percentile(lat, 0.95); err != nil {
		return nil, fmt.Errorf("latency p95 (lengthen the window): %w", err)
	}
	return m, nil
}
