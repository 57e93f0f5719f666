// Package wal is the durable storage engine beneath a served video library.
// The paper's thesis is that mined content structure turns a tape shelf into
// a *database*; a database that forgets every registration on a crash is not
// one, so this package provides what the related production systems treat as
// table stakes: an append-only write-ahead log with checkpointed snapshots
// and crash recovery.
//
// On disk a data directory looks like
//
//	data/
//	  LOCK                        flock held while an engine has the dir open
//	  MANIFEST                    current generation, snapshot, first segment
//	  snap-00000000000000000003.ckpt   checkpoint snapshot: a header frame, then one frame per video
//	  wal-00000000000000000007.log     sealed segment
//	  wal-00000000000000000008.log     active segment (appends go here)
//
// and that is all of it: one library journals to one engine.
//
// There is one on-disk format, in three layers. A file — segment or snapshot
// — is a run of frames: [length uint32 LE][crc32c uint32 LE][payload]
// (record.go). A frame's payload is an envelope: a version byte, a kind byte,
// the video name, and a body this package never looks inside (envelope.go).
// The body of a register or replace is the library's binary entry
// (internal/store). A snapshot differs from a segment only in opening with a
// header frame that counts what follows (snapshot.go), and a replication
// batch is a run of segment frames as they stand on disk. Only MANIFEST is
// JSON. A directory in a layout earlier builds wrote is refused with
// ErrRetiredFormat and left untouched (refuseRetired): Open refuses a JSON
// snapshot, a "compactions" count or a SHARDS file, and the envelope decoder
// a JSON record, which a replay meets as its callback's error — never as a
// torn tail to cut off.
//
// Appends go to the active segment, which rotates at Options.SegmentBytes.
// Replay walks the segments named live by MANIFEST, yields every intact
// record in append order, and stops at the first torn or corrupt frame — a
// torn tail on the active segment is physically truncated at open so the log
// always ends clean. A checkpoint streams a full snapshot through
// store.WriteFileAtomic, commits it by atomically replacing MANIFEST, then
// prunes the segments the snapshot superseded. Recovery is therefore: read
// MANIFEST's snapshot (all of it or the boot fails: ReadSnapshot), replay
// the segments from MANIFEST's first segment, done.
//
// The checkpoint is the only thing that ever removes a byte. A sealed
// segment is immutable: it is written once, read by replay and by log
// shipping, and deleted whole by the checkpoint that supersedes it. Records
// that a later delete or replacement made irrelevant therefore stay on the
// log until the next checkpoint — bounded by the two thresholds below — and
// cost a recovery their CRC check, not their decode (the library's replay
// skips them at read time).
//
// Every appended record is fsynced before Append returns (SyncAlways, the
// default: survives power loss); SyncNever leaves syncing to the OS until
// Close (tests and bulk loads: survives a process crash, not power loss).
// There is one write path: an append writes its frame and fsyncs it under
// the engine lock, so appends are acknowledged in log order, one fsync each,
// and a failed write or fsync truncates its own frame back off the log
// before the error returns (or, if even that fails, wedges the engine).
package wal

import (
	"errors"

	"classminer/internal/metrics"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record (default). No
	// acknowledged record is ever lost, even to power failure.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves syncing to the OS page cache (and Close). For tests
	// and bulk loads.
	SyncNever
)

// Options configures an Engine. The zero value is a safe default: 4 MiB
// segments, fsync on every record, auto-checkpoint at 64 MiB or 10k records
// of log lag.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 4 MiB).
	SegmentBytes int64
	// Sync is the fsync policy for appended records (default SyncAlways).
	Sync SyncPolicy
	// CheckpointBytes triggers a background checkpoint once that many log
	// bytes accumulate past the last one (default 64 MiB; negative
	// disables).
	CheckpointBytes int64
	// CheckpointRecords likewise triggers on record count (default 10000;
	// negative disables).
	CheckpointRecords int64
	// CompactBytes is ignored: frozen cmd/loadgen still sets it, and ROADMAP item 1 removes both.
	CompactBytes int64
	// ReplPinBudgetBytes bounds how many bytes of unshipped backlog an
	// attached follower's pin may hold against checkpoint pruning (default
	// 512 MiB; negative disables eviction). Past the budget the pin is
	// evicted and the follower re-seeds from the newest snapshot —
	// reclamation never wedges behind a dead replica.
	ReplPinBudgetBytes int64
	// Metrics, when non-nil, receives the engine's instrumentation: append
	// and fsync counters/histograms and scrape-time gauges over Stats().
	// Reopening an engine on the same registry (kill-restart recovery)
	// re-binds the gauge callbacks to the new engine and keeps accumulating
	// the shared counters.
	Metrics *metrics.Registry
	// Logf receives recovery and checkpoint notices (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 64 << 20
	}
	if o.CheckpointRecords == 0 {
		o.CheckpointRecords = 10000
	}
	if o.ReplPinBudgetBytes == 0 {
		o.ReplPinBudgetBytes = 512 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Stats is a point-in-time view of the engine's durability state: how much
// log has accumulated since the last checkpoint (the replay cost of a crash
// right now) and where the checkpoint generation stands.
type Stats struct {
	// Records and Bytes count the log appended since the last checkpoint.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Segments is the number of live log segments (replayed on recovery).
	Segments int `json:"segments"`
	// Generation counts completed checkpoints.
	Generation uint64 `json:"generation"`
	// Syncs counts segment-data fsyncs since open: one per SyncAlways
	// append, failed ones included, plus one per segment rotation.
	Syncs int64 `json:"syncs"`
}

// ErrClosed is returned by operations on a closed Engine.
var ErrClosed = errors.New("wal: engine closed")
