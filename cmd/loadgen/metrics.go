package main

// metricDef declares one reported metric. BENCHMARK.json repeats these
// tables; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// workloadDef is one traffic mix.
type workloadDef struct {
	Name   string
	Why    string
	Shards int // 0 = the daemon's default single library
}

// workloads are what a full loadgen run executes. BENCHMARK.json lists the
// first three, each of which loads one group of layers and bypasses the
// others; the driver's time cap (70 runs in 3420 s) has no room for the
// composite mixed-shards4 at a run length that keeps ingest-churn steady.
var workloads = []workloadDef{
	{Name: "search-uncached", Why: "uniform queries over 10000 shots miss the 256-entry cache: index project/scan/rank and the ACL filter do the work, cache and WAL none"},
	{Name: "search-cached", Why: "64 hot queries fit the cache 4x: the HTTP/auth/admission/cache-get/JSON edge does the work, the index none, so an index change must not show here"},
	{Name: "ingest-churn", Why: "8 in-flight durable ingests plus deletes: WAL encode/append/group-commit/checkpoint/compaction, store JSON and index insert/remove do the work, search none"},
	{Name: "mixed-shards4", Shards: 4, Why: "searches beside 20 open-loop churn pairs/s on 4 shards: cache invalidation, COW index updates, refits, router and 4 WALs share the cores"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// endToEnd are the metrics a client of the daemon sees. Every workload
// reports every one: "op" is the workload's own operation, a search on the
// three search workloads and an ingest (POST to job done) on ingest-churn.
// The timing bounds sit at the contract's ceiling because the sandbox drifts:
// the whole machine slows by 10-40% for tens of seconds to minutes at a time
// (CPU time per op moves with it), and ten runs of unchanged code then spread
// by 12-15% of their median where a quiet box gives 3-5%. The client-observed
// p99 is per-layer (client.op_p99_ms) for that reason: it cannot hold a bound.
// README.md has the series.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "search_recall_at_10", Unit: "ratio", Better: "higher", Bound: 0.005},
	{Name: "daemon_cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "daemon_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the single-layer metrics of the traced pass, named
// <layer>.<metric> after this repo's modules. A metric that a workload does
// not exercise (WAL counters on a search workload) reads 0 there.
var perLayer = []metricDef{
	// From the untraced measured run: what loadgen saw, then GET /metrics and
	// /v1/stats deltas across it.
	{Name: "client.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "server.http_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "net.client_minus_server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "admit.wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "admit.rejected", Unit: "count", Better: "lower"},
	{Name: "index.float_ops_per_query", Unit: "count", Better: "lower"},
	{Name: "index.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "index.cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "index.rebuilds", Unit: "count", Better: "lower"},
	{Name: "index.rebuilds_coalesced", Unit: "count", Better: "higher"},
	{Name: "index.incremental_inserts", Unit: "count", Better: "higher"},
	{Name: "index.incremental_removes", Unit: "count", Better: "higher"},
	{Name: "index.staleness_max", Unit: "ratio", Better: "lower"},
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.fsync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.fsync_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "wal.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "wal.compactions", Unit: "count", Better: "lower"},
	{Name: "wal.compact_s", Unit: "s", Better: "lower"},
	{Name: "wal.rotations", Unit: "count", Better: "lower"},
	{Name: "wal.disk_bytes_per_live_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.lag_bytes_at_kill", Unit: "B", Better: "lower"},
	{Name: "ingest.rps", Unit: "1/s", Better: "higher"},
	{Name: "ingest.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.delete_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.job_queue_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.job_run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "ingest.rejected", Unit: "count", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sched_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},

	// From the traced run's span trees (median self time per request).
	{Name: "trace.search.admit_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.auth_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.resolve_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.cache_get_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.search_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.project_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.scan_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.rank_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.filter_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.cache_put_us", Unit: "us", Better: "lower"},
	{Name: "trace.search.root_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.job.register_us", Unit: "us", Better: "lower"},
	{Name: "trace.job.encode_us", Unit: "us", Better: "lower"},
	{Name: "trace.job.install_us", Unit: "us", Better: "lower"},
	{Name: "trace.job.wal_park_us", Unit: "us", Better: "lower"},
	{Name: "trace.job.wal_fsync_lead_us", Unit: "us", Better: "lower"},
	{Name: "trace.delete.total_us", Unit: "us", Better: "lower"},
	{Name: "trace.delete.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "trace.rebuild.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.rebuild.swap_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.sum_check_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	// From in-process probes of each layer's public functions.
	{Name: "probe.index.search_us", Unit: "us", Better: "lower"},
	{Name: "probe.index.flat_us", Unit: "us", Better: "lower"},
	{Name: "probe.index.speedup_vs_flat", Unit: "ratio", Better: "higher"},
	{Name: "probe.index.insert_us", Unit: "us", Better: "lower"},
	{Name: "probe.index.build_ms", Unit: "ms", Better: "lower"},
	{Name: "probe.library.search_us", Unit: "us", Better: "lower"},
	{Name: "probe.shard.search_n1_us", Unit: "us", Better: "lower"},
	{Name: "probe.shard.search_n4_us", Unit: "us", Better: "lower"},
	{Name: "probe.server.search_uncached_us", Unit: "us", Better: "lower"},
	{Name: "probe.server.search_cached_us", Unit: "us", Better: "lower"},
	{Name: "probe.store.encode_us", Unit: "us", Better: "lower"},
	{Name: "probe.store.decode_us", Unit: "us", Better: "lower"},
	{Name: "probe.wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "probe.wal.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "probe.wal.decode_record_us", Unit: "us", Better: "lower"},
	{Name: "probe.recover.analyzer_s", Unit: "s", Better: "lower"},
	{Name: "probe.recover.replay_s", Unit: "s", Better: "lower"},
	{Name: "probe.recover.index_build_s", Unit: "s", Better: "lower"},
	{Name: "probe.admit.gate_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.admit.ratelimit_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.core.mine_frames_per_s", Unit: "1/s", Better: "higher"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps declared names to values; set refuses undeclared names so a
// typo cannot silently add a series.
type metricSet map[string]metricValue

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("loadgen: undeclared metric " + name)
}

// fill gives every declared metric not yet set the value 0.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metricValue{Unit: d.Unit}
		}
	}
}
