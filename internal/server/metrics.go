package server

import (
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// handleMetrics serves the daemon's counters in the Prometheus text
// exposition format, hand-written — the format is three line shapes
// (# HELP, # TYPE, sample), not worth a dependency. The counters are
// the same ones /healthz reports as JSON, under stable tdxd_* names, so
// a scrape config and a shell pipeline read the same truth.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	m := func(name, typ, help string, v int64) {
		fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
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
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}
