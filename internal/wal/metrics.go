package wal

import "classminer/internal/metrics"

// engineMetrics holds the engine's instruments. The zero value is fully
// inert — every instrument is a nil pointer whose methods are no-ops — so
// an engine opened without Options.Metrics pays only nil checks on the
// append and commit paths.
type engineMetrics struct {
	appends     *metrics.Counter   // records appended to the log
	appendBytes *metrics.Counter   // framed bytes appended to the log
	rotations   *metrics.Counter   // active-segment rotations
	fsync       *metrics.Histogram // per-append fsync latency
	batch       *metrics.Histogram // records acknowledged per fsync: always 1
	checkpoint  *metrics.Histogram // successful checkpoint wall time
	shipRecords *metrics.Counter   // records shipped to followers
	shipBytes   *metrics.Counter   // framed bytes shipped to followers
}

// registerMetrics binds the engine's instrumentation to reg. Counters and
// histograms dedupe by name, so an engine reopened on the same registry
// (kill-restart recovery, the durable-library tests) keeps accumulating the
// same series; the gauge callbacks over Stats() are re-registered and
// re-bind to the new engine. Runs once at Open, before any concurrency.
func (e *Engine) registerMetrics(reg *metrics.Registry) {
	e.met = engineMetrics{
		appends: reg.Counter("wal_appends_total",
			"Records appended to the write-ahead log."),
		appendBytes: reg.Counter("wal_append_bytes_total",
			"Framed bytes appended to the write-ahead log."),
		rotations: reg.Counter("wal_rotations_total",
			"Active-segment rotations (seal + new segment)."),
		fsync: reg.Histogram("wal_fsync_duration_seconds",
			"Latency of the fsync each SyncAlways append runs before it returns.", metrics.LatencyBuckets),
		batch: reg.Histogram("wal_group_commit_records",
			"Records acknowledged per fsync: 1, since every append fsyncs its own record (the name predates that).", metrics.CountBuckets),
		checkpoint: reg.Histogram("wal_checkpoint_duration_seconds",
			"Wall time of successful checkpoints.", metrics.LatencyBuckets),
		shipRecords: reg.Counter("repl_ship_records_total",
			"Records shipped to attached followers."),
		shipBytes: reg.Counter("repl_ship_bytes_total",
			"Framed bytes shipped to attached followers."),
	}
	reg.GaugeFunc("wal_lag_records", "Records appended since the last checkpoint.",
		func() float64 { return float64(e.Stats().Records) })
	reg.GaugeFunc("wal_lag_bytes", "Log bytes appended since the last checkpoint.",
		func() float64 { return float64(e.Stats().Bytes) })
	reg.GaugeFunc("wal_segments", "Live log segments (replayed on recovery).",
		func() float64 { return float64(e.Stats().Segments) })
	reg.CounterFunc("wal_checkpoints_total", "Completed checkpoint generations.",
		func() float64 { return float64(e.Stats().Generation) })
	reg.CounterFunc("wal_syncs_total", "Segment-data fsyncs since open.",
		func() float64 { return float64(e.Stats().Syncs) })
}
