package main

// metricDef declares one metric: its name, unit, which direction is
// better and, for end-to-end metrics, the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the service sees, measured with
// tracing off, on every workload. They match BENCHMARK.json's end_to_end.
// The bounds follow the measured run-to-run spread (README.md, "Noise"):
// throughput and latency move with the host's speed, the resident set
// does not.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the per-layer metrics every workload yields; a layer the
// workload's path does not cross reads 0 for counts and ratios. They
// match BENCHMARK.json's per_layer.
var perLayer = []metricDef{
	{name: "http.protect_self_ms", unit: "ms", better: "lower"},
	{name: "http.client_gap_ms", unit: "ms", better: "lower"},
	{name: "auth.us", unit: "us", better: "lower"},
	{name: "ring.forward_share", unit: "ratio", better: "lower"},
	{name: "ring.replication_per_write", unit: "ratio", better: "lower"},
	{name: "ring.replication_failed", unit: "count", better: "lower"},
	{name: "wire.bytes_out_per_op", unit: "B", better: "lower"},
	{name: "wire.bytes_in_per_op", unit: "B", better: "lower"},
	{name: "codec.decode_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "codec.encode_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "service.stream_open_us", unit: "us", better: "lower"},
	{name: "service.fit_self_ms", unit: "ms", better: "lower"},
	{name: "engine.fit_ms", unit: "ms", better: "lower"},
	{name: "engine.fit_parallel_eff", unit: "ratio", better: "higher"},
	{name: "engine.stream_rows_per_s", unit: "1/s", better: "higher"},
	{name: "engine.stream_parallel_eff", unit: "ratio", better: "higher"},
	{name: "engine.fit_alloc_mb", unit: "MB", better: "lower"},
	{name: "engine.stream_alloc_bytes_per_row", unit: "B", better: "lower"},
	{name: "core.security_range_ms", unit: "ms", better: "lower"},
	{name: "core.security_range_share", unit: "ratio", better: "lower"},
	{name: "keyring.file_rotate_ms_v100", unit: "ms", better: "lower"},
	{name: "keyring.file_rotate_ms_v400", unit: "ms", better: "lower"},
	{name: "datastore.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "driver.cpu_share", unit: "ratio", better: "lower"},
}

// pathLayer are layer timings that exist only on workloads whose path
// crosses the layer. The ledger and the printout carry them where they
// are measured; they stay out of BENCHMARK.json because every declared
// metric must be measured on every workload.
var pathLayer = []metricDef{
	{name: "http.read_self_ms", unit: "ms", better: "lower"},
	{name: "ring.forward_self_ms", unit: "ms", better: "lower"},
	{name: "ring.replication_lag_p99_ms", unit: "ms", better: "lower"},
	{name: "service.ingest_ms", unit: "ms", better: "lower"},
	{name: "engine.normalize_ms", unit: "ms", better: "lower"},
	{name: "engine.rotate_ms", unit: "ms", better: "lower"},
	{name: "keyring.put_ms", unit: "ms", better: "lower"},
	{name: "datastore.get_ms", unit: "ms", better: "lower"},
	{name: "jobs.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "jobs.run_ms", unit: "ms", better: "lower"},
	{name: "cluster.kmeans_ms", unit: "ms", better: "lower"},
}

// clientOnly are client-side metrics only the ledger and the printout
// carry: error_rate is 0 in every good run, so a bound on a share of its
// median means nothing (failures reach the result line as "failed"); the
// resident high-water mark swings with garbage-collection timing far
// more than the median resident set does; and tail_ms spread past even
// the largest bound, 0.25, across runs of the same code on a shared host.
var clientOnly = []metricDef{
	{name: "error_rate", unit: "ratio", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "tail_ms", unit: "ms", better: "lower"},
}

// ledgerOps are the operations whose latency pairs (<op>_p50_ms and
// <op>_tail_ms) the ledger reports.
var ledgerOps = []opKind{opProtect, opFit, opUpload, opRead, opCluster}

// unitOf returns the unit of any metric the benchmark reports.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer, pathLayer, clientOnly} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	return "ms" // the per-operation latency pairs
}
