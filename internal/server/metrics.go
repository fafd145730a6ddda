package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"time"
)

// goMetrics are the Go runtime's heap and GC series /metrics exports,
// read from runtime/metrics on each scrape: where the memory went, and
// how hard the collector worked for it.
var goMetrics = []struct{ name, typ, help, key string }{
	{"tdxd_go_heap_live_bytes", "gauge", "Heap bytes the last GC cycle marked live.",
		"/gc/heap/live:bytes"},
	{"tdxd_go_heap_objects_bytes", "gauge", "Heap bytes held by objects, live or not yet swept.",
		"/memory/classes/heap/objects:bytes"},
	{"tdxd_go_heap_allocs_bytes_total", "counter", "Bytes allocated on the heap since the daemon started.",
		"/gc/heap/allocs:bytes"},
	{"tdxd_go_gc_cycles_total", "counter", "Completed GC cycles.",
		"/gc/cycles/total:gc-cycles"},
	{"tdxd_go_gc_cpu_seconds_total", "counter", "Estimated CPU seconds spent in the GC.",
		"/cpu/classes/gc/total:cpu-seconds"},
}

// handleMetrics serves the daemon's counters in the Prometheus text
// exposition format, hand-written — the format is three line shapes
// (# HELP, # TYPE, sample), not worth a dependency. The counters are
// the same ones /healthz reports as JSON, under stable tdxd_* names, so
// a scrape config and a shell pipeline read the same truth, followed by
// the source cache's size and the goMetrics runtime series. Samples
// carry no labels, and every value parses with strconv.ParseFloat.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	sample := func(name, typ, help, v string) {
		fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, v)
	}
	m := func(name, typ, help string, v int64) {
		sample(name, typ, help, strconv.FormatInt(v, 10))
	}
	m("tdxd_uptime_seconds", "gauge", "Seconds since the daemon started.",
		int64(time.Since(s.start).Seconds()))
	m("tdxd_requests_total", "counter", "HTTP requests served, all endpoints.",
		s.requests.Load())
	m("tdxd_errors_5xx_total", "counter", "Responses with a 5xx status.",
		s.errors5xx.Load())
	m("tdxd_mappings", "gauge", "Compiled exchanges resident in the registry.",
		int64(s.reg.Len()))
	m("tdxd_compiles_total", "counter", "Request-driven mapping compilations (warm-start replays excluded).",
		s.reg.Compiles())
	m("tdxd_mapping_evictions_total", "counter", "Registry entries evicted by the LRU bound.",
		s.reg.Evicted())
	m("tdxd_sessions", "gauge", "Live incremental-exchange sessions.",
		int64(s.sessions.Len()))
	m("tdxd_session_evictions_total", "counter", "Sessions evicted by the LRU bound.",
		s.sessions.Evicted())
	m("tdxd_inflight_chases", "gauge", "Chases currently holding an admission slot.",
		s.gate.inflight.Load())
	m("tdxd_inflight_chases_high_water", "gauge", "Maximum concurrent chases ever observed.",
		s.gate.highWater.Load())
	m("tdxd_queued_chases", "gauge", "Chases currently queued for an admission slot.",
		s.gate.queued.Load())
	m("tdxd_rejected_chases_total", "counter", "Chases rejected with 429 after outwaiting the queue budget.",
		s.gate.rejected.Load())
	m("tdxd_warm_starts_total", "counter", "Manifest entries replayed at boot.",
		s.warmStarts.Load())
	m("tdxd_snapshot_loads_total", "counter", "Solution snapshots loaded (run-cache hits, session resumes).",
		s.snapshotLoads.Load())
	m("tdxd_snapshot_writes_total", "counter", "Solution snapshots written (runs, sessions).",
		s.snapshotWrites.Load())
	m("tdxd_source_cache_hits_total", "counter", "Decoded request bodies served from the in-memory source cache.",
		s.sourceCacheHits.Load())
	m("tdxd_source_cache_entries", "gauge", "Decoded, frozen sources resident in the source cache.",
		int64(s.sources.len()))
	m("tdxd_source_cache_values", "gauge", "Distinct values interned by the cached sources (sum of their interner lengths).",
		int64(s.sources.values()))
	rt := make([]metrics.Sample, len(goMetrics))
	for i, g := range goMetrics {
		rt[i].Name = g.key
	}
	metrics.Read(rt)
	for i, g := range goMetrics {
		switch v := rt[i].Value; v.Kind() {
		case metrics.KindUint64:
			sample(g.name, g.typ, g.help, strconv.FormatUint(v.Uint64(), 10))
		case metrics.KindFloat64:
			sample(g.name, g.typ, g.help, strconv.FormatFloat(v.Float64(), 'g', -1, 64))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}
