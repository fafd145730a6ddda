package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json at
// the repository root declares the same names with the same units; a
// test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are what a tdxd user sees, measured with tracing off.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetrics come from the traced replay and the daemon's counters.
// A layer a workload does not exercise reads 0 there.
var layerMetrics = []metricDef{
	{"parser.parse_ms", "ms", "lower"},
	{"jsonio.decode_ms", "ms", "lower"},
	{"storage.freeze_ms", "ms", "lower"},
	{"normalize.source_ms", "ms", "lower"},
	{"normalize.fragmentation", "ratio", "lower"},
	{"chase.tgd_ms", "ms", "lower"},
	{"chase.egd_ms", "ms", "lower"},
	{"chase.tgd_fires", "count", "lower"},
	{"chase.fire_ratio", "ratio", "higher"},
	{"chase.nulls_created", "count", "lower"},
	{"chase.egd_rounds", "count", "lower"},
	{"chase.egd_merges", "count", "lower"},
	{"chase.rows_rewritten", "count", "lower"},
	{"tdx.run_ms", "ms", "lower"},
	{"query.eval_ms", "ms", "lower"},
	{"jsonio.encode_ms", "ms", "lower"},
	{"jsonio.encode_bytes_per_fact", "bytes/fact", "lower"},
	{"server.http_ms", "ms", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.source_cache_hit_frac", "fraction", "higher"},
	{"server.inflight_high_water", "count", "lower"},
	{"tdx.rundelta_fast_ms", "ms", "lower"},
	{"tdx.rundelta_fallback_ms", "ms", "lower"},
	{"tdx.delta_fastpath_frac", "fraction", "higher"},
	{"chase.delta_fires", "count", "lower"},
	{"chase.base_rows_rewritten", "count", "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns measured values into reported ones, in defs order; a
// metric nothing measured reads 0.
func fill(defs []metricDef, measured map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: measured[d.name], Unit: d.unit}
	}
	return out
}
