package main

import "sort"

// metricDef is one metric the benchmark reports: its name, unit and
// which direction is better. BENCHMARK.json lists the same metrics, and
// README.md which end-to-end metric each per-layer one should move; the
// tests keep BENCHMARK.json in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a run prints with --trace 0, on every
// workload. items_per_s is users/s on loadgen, cells/s on matrix and
// pages/s on pipeline; the human-readable lines name it that way.
var endToEnd = []metricDef{
	{name: "items_per_s", unit: "1/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "allocs_per_item", unit: "count", better: "lower"},
	{name: "alloc_bytes_per_item", unit: "B", better: "lower"},
	{name: "mem_peak_mb", unit: "MiB", better: "lower"},
}

// perLayer are the metrics a run prints with --trace 1, on every
// workload; a layer the workload never reaches reads 0. The _s metrics
// listed in selfLayers are disjoint self times: together with
// unattributed_s they add up to trace.run_s.
var perLayer = []metricDef{
	{name: "trace.run_s", unit: "s", better: "lower"},
	{name: "unattributed_s", unit: "s", better: "lower"},
	{name: "netsim.new_ns", unit: "ns", better: "lower"},
	{name: "netsim.new_s", unit: "s", better: "lower"},
	{name: "cache.redeem_ns", unit: "ns", better: "lower"},
	{name: "cache.redeem_s", unit: "s", better: "lower"},
	{name: "cache.tickets", unit: "count", better: "lower"},
	{name: "cache.dns_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.resume_ratio", unit: "ratio", better: "higher"},
	{name: "corpus.decode_s", unit: "s", better: "lower"},
	{name: "corpus.decodes", unit: "count", better: "lower"},
	{name: "corpus.encode_s", unit: "s", better: "lower"},
	{name: "corpus.bytes", unit: "B", better: "lower"},
	{name: "webgen.generate_s", unit: "s", better: "lower"},
	{name: "webgen.pages", unit: "count", better: "higher"},
	{name: "report.index_s", unit: "s", better: "lower"},
	{name: "report.tables_s", unit: "s", better: "lower"},
	{name: "browser.request_ns", unit: "ns", better: "lower"},
	{name: "browser.request_s", unit: "s", better: "lower"},
	{name: "browser.requests", unit: "count", better: "lower"},
	{name: "browser.reuse_ratio", unit: "ratio", better: "higher"},
	{name: "browser.coalesce_ratio", unit: "ratio", better: "higher"},
	{name: "cdn.env_ns", unit: "ns", better: "lower"},
	{name: "cdn.env_s", unit: "s", better: "lower"},
	{name: "cdn.build_s", unit: "s", better: "lower"},
	{name: "scenario.run_s", unit: "s", better: "lower"},
	{name: "scenario.replay_s", unit: "s", better: "lower"},
	{name: "scenario.cells", unit: "count", better: "higher"},
	{name: "loadgen.run_s", unit: "s", better: "lower"},
	{name: "loadgen.requests", unit: "count", better: "lower"},
	{name: "parallel.speedup", unit: "ratio", better: "higher"},
	{name: "gc.cpu_frac", unit: "ratio", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "higher"},
}

// selfLayers are the per-layer self times that, with unattributed_s,
// partition the traced iteration's wall time.
var selfLayers = []string{
	"webgen.generate_s", "corpus.encode_s", "corpus.decode_s",
	"report.index_s", "report.tables_s",
	"netsim.new_s", "cdn.build_s", "cdn.env_s",
	"browser.request_s", "cache.redeem_s",
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
