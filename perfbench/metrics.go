package main

import (
	"math"

	"qse/internal/stats"
)

// metricDef names one printed metric and its unit. The two tables below
// are the benchmark's contract: BENCHMARK.json lists the same names and
// units, and TestMetricNamesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the served store sees; every workload
// reports every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"search_p50_ms", "ms"},
	{"search_p95_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"snapshot_p50_ms", "ms"},
	{"recall_at_10", "ratio"},
	{"exact_distances_per_query", "count"},
	{"distances_at_95", "count"},
	{"heap_mb", "MiB"},
	{"disk_bytes_per_live_byte", "ratio"},
	{"ok_op_ratio", "ratio"},
}

// perLayer comes from the traced run. Layers are the repository's
// modules; a metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"http.transport_us", "us"},
	{"server.search_self_us", "us"},
	{"server.batch_self_us", "us"},
	{"server.write_self_us", "us"},
	{"server.req_bytes", "B"},
	{"server.resp_bytes", "B"},
	{"server.non2xx", "count"},
	{"meta.compile_us", "us"},
	{"meta.filter_eval_us", "us"},
	{"meta.selectivity", "ratio"},
	{"meta.plan_bitmap_frac", "ratio"},
	{"core.train_s", "s"},
	{"core.embed_us", "us"},
	{"core.embed_dists", "count"},
	{"space.dist_us", "us"},
	{"space.setup_dists", "count"},
	{"store.build_s", "s"},
	{"store.search_us", "us"},
	{"store.batch_us_per_query", "us"},
	{"store.merge_us", "us"},
	{"store.refine_us", "us"},
	{"store.refine_dists", "count"},
	{"store.add_us", "us"},
	{"store.upsert_us", "us"},
	{"store.remove_us", "us"},
	{"store.write_p99_us", "us"},
	{"store.compactions", "count"},
	{"store.delta_scan_share", "ratio"},
	{"store.save_ms", "ms"},
	{"store.save_kb", "KiB"},
	{"store.write_amp", "ratio"},
	{"retrieval.filter_wall_us", "us"},
	{"retrieval.bound_scan_work_us", "us"},
	{"retrieval.filter_base_work_us", "us"},
	{"retrieval.filter_delta_work_us", "us"},
	{"retrieval.rows_screened", "count"},
	{"retrieval.exact_rows", "count"},
	{"retrieval.exact_frac", "ratio"},
	{"retrieval.scan_mb", "MiB"},
	{"vafile.quantize_s", "s"},
	{"vafile.shadow_mb", "MiB"},
	{"obs.scrape_us", "us"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.sched_wait_us", "us"},
	{"runtime.mutex_wait_us_per_write", "us"},
	{"trace.overhead_frac", "ratio"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object for one table from computed values;
// a value the table names but the run did not compute is an error in
// the benchmark itself, so it panics rather than printing a partial
// result.
func fill(table []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(table))
	for _, m := range table {
		v, ok := vals[m.name]
		if !ok {
			panic("perfbench: metric " + m.name + " was not computed")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

// percentile returns the q-quantile (0 <= q <= 1) of xs, or 0 for an
// empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*q)
}

// quiet summarises a tail latency taken in every window of a run: the
// lower quartile, over the windows, of the q-quantile within each. A
// shared host's other tenants come and go within seconds and only ever
// slow a window (on a 2-vCPU cloud VM, one vector-scan run's search p95
// ranged from 7.9 to 13.5 ms between its two-second windows while the
// recorded CPU steal stayed below 0.5%), and a whole run's p95 is set by
// its slowest few seconds. This figure follows the program's own tail
// as long as a quarter of the windows run undisturbed. A median needs no
// such care: a burst moves it only by the share of the run it covers.
func quiet(ws [][]float64, q float64) float64 {
	var per []float64
	for _, xs := range ws {
		if len(xs) > 0 {
			per = append(per, percentile(xs, q))
		}
	}
	return percentile(per, 0.25)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
