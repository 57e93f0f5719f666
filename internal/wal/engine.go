package wal

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"classminer/internal/store"
	"classminer/internal/trace"
)

// Engine is the durable storage engine over one data directory: an
// append-only segmented log plus a checkpoint manager. The intended
// lifecycle is
//
//	eng, _ := wal.Open(dir, opts)     // repairs torn tail, prunes leftovers
//	path  := eng.SnapshotPath()       // load the newest snapshot, if any (ReadSnapshot)
//	eng.Replay(apply)                 // apply the log tail on top of it
//	eng.SetSource(save)               // teach checkpoints how to snapshot
//	eng.Append(record)                // journal each mutation before applying
//	eng.Checkpoint()                  // or let the background thresholds fire
//	eng.Close()
//
// All methods are safe for concurrent use. Append ordering is the caller's
// replay ordering.
type Engine struct {
	dir  string
	opts Options

	// cpMu serialises checkpoints (admin-triggered and background) without
	// stalling appends, which only need mu. Lock order: cpMu < mu.
	cpMu sync.Mutex

	mu         sync.Mutex
	lock       *os.File // held flock on the data dir (see lockDataDir)
	active     *os.File
	activeIdx  uint64
	activeSize int64
	segStart   uint64 // oldest live segment (== manifest.FirstSegment)
	man        manifest
	lagRecords int64 // appended since the last checkpoint
	lagBytes   int64
	damaged    bool // Replay stopped early at a damaged or missing segment
	dirty      bool // unsynced writes on the active segment
	wedged     bool // an append failure could not be undone; log refuses writes
	buf        []byte
	source     func(io.Writer) error
	closed     bool
	syncCount  int64 // segment data fsyncs performed

	// syncHook, when non-nil, replaces an append's fsync (test-only fault
	// injection for the failed-fsync contract).
	syncHook func(f *os.File) error

	// Replication state (repl.go): attached follower pins keyed by follower
	// id, the lazily created durable-advance broadcast channel long-polling
	// pullers park on, and the low-water mark below which checkpoint pruning
	// has already swept (pinned segments survive below FirstSegment until
	// their followers move past them; pruneFloor lets the next checkpoint
	// reclaim them).
	pins       map[string]*replPin
	durableCh  chan struct{}
	pruneFloor uint64

	// met holds the engine's instruments (see registerMetrics); the zero
	// value is inert.
	met engineMetrics

	kick chan struct{} // nudges the background checkpointer
	done chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating if needed) the data directory and repairs it: stale
// segments and snapshots a finished checkpoint no longer needs are pruned,
// and a torn tail on the active segment — the signature of a crash mid-
// append — is truncated away so the log ends on a record boundary. The
// returned engine is ready to Replay and Append. A directory in a layout an
// earlier build wrote is refused before anything in it is touched
// (ErrRetiredFormat).
func Open(dir string, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := lockDataDir(dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if err := refuseRetired(dir, man); err != nil {
		return nil, err
	}
	e := &Engine{
		dir:        dir,
		opts:       opts,
		lock:       lock,
		man:        man,
		segStart:   man.FirstSegment,
		pruneFloor: man.FirstSegment,
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	if err := e.pruneStale(); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	e.activeIdx = man.FirstSegment
	if n := len(segs); n > 0 {
		e.activeIdx = segs[n-1]
	}
	for _, idx := range segs {
		if fi, err := os.Stat(e.segPath(idx)); err == nil {
			e.lagBytes += fi.Size()
		}
	}
	if err := e.openActive(); err != nil {
		return nil, err
	}
	// Make the directory entries created above (the data dir on first use,
	// the active segment on a fresh log) durable before any record is
	// acknowledged — an fsynced record in a file whose directory entry is
	// lost to power loss is just as gone as an unsynced one.
	if err := store.SyncDir(e.dir); err != nil {
		e.active.Close()
		return nil, err
	}
	if parent := filepath.Dir(filepath.Clean(dir)); parent != dir {
		if err := store.SyncDir(parent); err != nil {
			e.active.Close()
			return nil, err
		}
	}
	if opts.Metrics != nil {
		e.registerMetrics(opts.Metrics)
	}
	e.wg.Add(1)
	go e.checkpointLoop()
	ok = true
	return e, nil
}

func (e *Engine) segPath(idx uint64) string { return filepath.Join(e.dir, segmentName(idx)) }

// pruneStale removes files superseded by the manifest: segments older than
// FirstSegment and snapshots other than the current one. These exist only
// when a crash interrupted a checkpoint between committing MANIFEST and
// finishing the prune (or landed an orphan snapshot before the commit).
func (e *Engine) pruneStale() error {
	segs, err := listSegments(e.dir)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx < e.man.FirstSegment {
			e.opts.Logf("wal: pruning stale segment %s", segmentName(idx))
			if err := os.Remove(e.segPath(idx)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	snaps, err := listSnapshots(e.dir)
	if err != nil {
		return err
	}
	for _, name := range snaps {
		if name != e.man.Snapshot {
			e.opts.Logf("wal: pruning stale snapshot %s", name)
			if err := os.Remove(filepath.Join(e.dir, name)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	// Orphaned atomic-write temps: a crash inside WriteFileAtomic — a
	// checkpoint snapshot or a manifest replacement — leaves its temp file
	// behind (the rename never ran, so the live files are untouched). They
	// are never named by the manifest and never parse as segments or
	// snapshots; clear them out.
	temps, err := listTempFiles(e.dir)
	if err != nil {
		return err
	}
	for _, name := range temps {
		e.opts.Logf("wal: pruning orphaned temp file %s", name)
		if err := os.Remove(filepath.Join(e.dir, name)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// openActive repairs the active segment's tail and opens it for appending,
// creating it when the directory has no live segments yet.
func (e *Engine) openActive() error {
	path := e.segPath(e.activeIdx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	valid, _, damage, scanErr := scanLog(bufio.NewReader(f), nil)
	if scanErr != nil {
		// A real read failure, not a torn tail: truncating here would
		// destroy records that may be perfectly intact. Fail the open and
		// let the operator retry.
		f.Close()
		return fmt.Errorf("wal: scanning %s: %w", segmentName(e.activeIdx), scanErr)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if valid < fi.Size() {
		why := "torn"
		if damage != nil {
			why = damage.Error()
		}
		e.opts.Logf("wal: truncating %s from %d to %d bytes (%s)", segmentName(e.activeIdx), fi.Size(), valid, why)
		e.lagBytes -= fi.Size() - valid
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	e.active = f
	e.activeSize = valid
	return nil
}

// SnapshotPath returns the current checkpoint snapshot's path, or "" when
// no checkpoint has completed yet (recovery is then a pure log replay).
func (e *Engine) SnapshotPath() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.man.Snapshot == "" {
		return ""
	}
	return filepath.Join(e.dir, e.man.Snapshot)
}

// Replay yields every intact record appended since the current snapshot, in
// append order. It stops cleanly at the first torn or corrupt frame (a
// fully damaged segment chain loses its tail — that is surfaced via Logf
// and ReplayDamaged, not an error, because the valid prefix is still the
// best available state). An error from fn aborts the replay and is
// returned. Replay is meant to run after Open and before the first Append;
// until then it may run again and yields the same records (the library's
// recovery reads the log twice, envelopes first).
func (e *Engine) Replay(fn func(payload []byte) error) error {
	e.mu.Lock()
	start, end := e.segStart, e.activeIdx
	e.mu.Unlock()
	var records int64
	damaged := false
	for idx := start; idx <= end; idx++ {
		f, err := os.Open(e.segPath(idx))
		if os.IsNotExist(err) {
			e.opts.Logf("wal: segment %s missing; replay stops (records after it are unreachable)", segmentName(idx))
			damaged = true
			break
		}
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		_, n, damage, scanErr := scanLog(bufio.NewReader(f), fn)
		f.Close()
		records += n
		if scanErr != nil {
			// An fn failure or a real I/O error — either way, not log
			// damage: propagate rather than heal away readable records.
			return scanErr
		}
		if damage != nil {
			e.opts.Logf("wal: %s damaged after %d records (%v); replay stops", segmentName(idx), n, damage)
			// Damage in the active segment would have been truncated away
			// by openActive; mid-chain damage strands the segments after it.
			damaged = idx < end
			break
		}
	}
	e.mu.Lock()
	e.lagRecords = records
	e.damaged = damaged
	e.mu.Unlock()
	return nil
}

// ReplayDamaged reports whether the last Replay stopped before the end of
// the segment chain (a damaged or missing sealed segment). The records
// beyond the damage point are unreachable by every future replay, and new
// appends land beyond it too — so a caller that recovered successfully
// should checkpoint immediately: the fresh snapshot captures the recovered
// state, reseats the log past the damage, and prunes the broken segments.
func (e *Engine) ReplayDamaged() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.damaged
}

// SetSource installs the snapshot writer checkpoints call to serialise the
// current library state. Until a source is set, Checkpoint fails and the
// background thresholds stay quiet.
//
// Ordering contract: when the source runs it must observe the state of
// every record already appended, or a checkpoint could prune a segment
// whose record the snapshot missed. Callers get this by holding one lock
// from each append until its record is applied, and taking the same lock in
// the source — which is how the library's writers (append, then apply, all
// under its writer lock) pair with its checkpoint source (its video list
// copied under that lock).
func (e *Engine) SetSource(write func(io.Writer) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.source = write
	// A recovered log can already be past the auto-checkpoint thresholds
	// (the crash happened with lag accumulated); evaluate them now rather
	// than waiting for the next append, which on a read-only deployment
	// might never come.
	if e.source != nil && e.lagExceededLocked() {
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
}

// Append journals one record. The payload is on the log (and, under
// SyncAlways, on stable storage) before Append returns, so callers may
// apply the mutation to in-memory state the moment it does. Appending an
// empty payload is an error (the framing reserves it for corruption
// detection).
//
// Under SyncAlways each append writes its frame and fsyncs it under the
// engine lock: appends are durable in the order they return, and a failed
// fsync truncates its own frame back off the log before the error is
// returned (undoAppendLocked).
func (e *Engine) Append(payload []byte) error {
	return e.AppendCtx(context.Background(), payload)
}

// AppendCtx is Append with tracing: when ctx carries a trace span, the
// append is recorded as "wal.append" and its fsync as a "wal.fsync.lead"
// child.
func (e *Engine) AppendCtx(ctx context.Context, payload []byte) error {
	sp := trace.StartSpan(ctx, "wal.append")
	defer sp.End()
	if len(payload) == 0 {
		return fmt.Errorf("wal: refusing to append empty record")
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: record payload %d bytes exceeds %d", len(payload), MaxRecordBytes)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.appendableLocked(); err != nil {
		return err
	}
	if e.activeSize >= e.opts.SegmentBytes {
		if err := e.rotateLocked(); err != nil {
			return err
		}
	}
	e.buf = appendRecord(e.buf[:0], payload)
	if _, err := e.active.Write(e.buf); err != nil {
		e.undoAppendLocked()
		return fmt.Errorf("wal: %w", err)
	}
	if e.opts.Sync == SyncAlways {
		fs := sp.Start("wal.fsync.lead")
		err := e.syncLocked()
		fs.End()
		if err != nil {
			e.undoAppendLocked()
			return fmt.Errorf("wal: %w", err)
		}
		e.met.batch.Observe(1)
	} else {
		e.dirty = true
	}
	n := int64(len(e.buf))
	e.activeSize += n
	e.lagRecords++
	e.lagBytes += n
	e.met.appends.Inc()
	e.met.appendBytes.Add(uint64(n))
	// The record is acknowledged the moment the lock drops (SyncNever
	// promises no more), so it is shippable to followers now.
	e.advancePinsLocked(1, n)
	if e.source != nil && e.lagExceededLocked() {
		select {
		case e.kick <- struct{}{}:
		default: // a checkpoint is already pending
		}
	}
	return nil
}

// syncLocked fsyncs the active segment (through syncHook when a test set
// one) and records its latency. Callers hold e.mu.
func (e *Engine) syncLocked() error {
	start := time.Now()
	var err error
	if e.syncHook != nil {
		err = e.syncHook(e.active)
	} else {
		err = e.active.Sync()
	}
	e.met.fsync.ObserveSince(start)
	e.syncCount++
	return err
}

// appendableLocked reports why the engine cannot take appends, if it can't.
// Callers hold e.mu.
func (e *Engine) appendableLocked() error {
	if e.closed {
		return ErrClosed
	}
	if e.wedged {
		return fmt.Errorf("wal: engine wedged by an earlier unrecoverable write failure")
	}
	return nil
}

// undoAppendLocked truncates the active segment back to the last
// acknowledged record after a failed write or fsync, so the failure the
// caller sees and the log recovery will replay agree (activeSize excludes
// the failed frame). The truncation itself must reach the disk: a
// page-cache-only truncate can be lost to power failure, leaving the frame
// on disk for replay to resurrect. If it cannot be made durable, the log
// and the acks can no longer be reconciled: the engine wedges (all future
// appends refused) rather than risk resurrecting a record that was
// reported failed. Callers hold e.mu.
func (e *Engine) undoAppendLocked() {
	size := e.activeSize
	if _, err := e.active.Seek(size, io.SeekStart); err == nil {
		if err := e.active.Truncate(size); err == nil {
			if err := e.active.Sync(); err == nil {
				return
			}
		}
	}
	e.wedged = true
	e.opts.Logf("wal: could not truncate %s back to %d bytes after a failed append; engine wedged",
		segmentName(e.activeIdx), size)
}

func (e *Engine) lagExceededLocked() bool {
	return (e.opts.CheckpointBytes > 0 && e.lagBytes >= e.opts.CheckpointBytes) ||
		(e.opts.CheckpointRecords > 0 && e.lagRecords >= e.opts.CheckpointRecords)
}

// rotateLocked seals the active segment and starts the next one. Callers
// hold e.mu. State is only committed once the new segment is fully open and
// durable, so a failed rotation (disk full, fsync error) leaves the engine
// still appending to the old segment instead of wedged on a closed file.
func (e *Engine) rotateLocked() error {
	if err := e.active.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	e.dirty = false
	e.syncCount++
	next := e.activeIdx + 1
	f, err := os.OpenFile(e.segPath(next), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Make the new segment's directory entry durable: recovery iterates
	// segment indices, so a hole left by power loss would end replay early.
	// On failure, undo the creation so a retry's O_EXCL does not trip over
	// this attempt's leftover.
	if err := store.SyncDir(e.dir); err != nil {
		f.Close()
		os.Remove(e.segPath(next))
		return err
	}
	old := e.active
	e.active = f
	e.activeIdx = next
	e.activeSize = 0
	if err := old.Close(); err != nil {
		// The old segment is already synced; nothing is lost.
		e.opts.Logf("wal: closing sealed %s: %v", segmentName(next-1), err)
	}
	e.met.rotations.Inc()
	return nil
}

// Checkpoint writes a full snapshot through the installed source, commits
// it by replacing MANIFEST, and prunes the log segments the snapshot
// superseded. Records appended while the snapshot is being written stay on
// the log and are replayed over it on recovery (the library's registration
// replay skips the duplicates), so checkpointing never blocks appends.
func (e *Engine) Checkpoint() error {
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	cpStart := time.Now()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	src := e.source
	if src == nil {
		e.mu.Unlock()
		return fmt.Errorf("wal: no snapshot source installed")
	}
	// Seal the log at a cut point: everything before the new active
	// segment will be covered by the snapshot about to be taken (the
	// source serialises state that includes at least those records).
	if err := e.rotateLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	cut := e.activeIdx
	gen := e.man.Generation + 1
	prevRecords, prevBytes := e.lagRecords, e.lagBytes
	e.lagRecords, e.lagBytes = 0, 0
	// Followers too far behind to wait for forfeit their pins now (their
	// next pull re-seeds from the snapshot about to be written); surviving
	// pins cap the prune below. minPin only rises while cpMu is held —
	// Attach needs cpMu and ReadFrom moves cursors forward — so capturing it
	// here is safe for the whole checkpoint.
	e.evictOverBudgetLocked()
	minPin := e.minPinLocked()
	e.mu.Unlock()

	restoreLag := func() {
		e.mu.Lock()
		e.lagRecords += prevRecords
		e.lagBytes += prevBytes
		e.mu.Unlock()
	}
	snap := snapshotName(gen)
	if err := store.WriteFileAtomic(filepath.Join(e.dir, snap), src); err != nil {
		restoreLag()
		return err
	}
	man := manifest{Version: manifestVersion, Generation: gen, Snapshot: snap, FirstSegment: cut}
	if err := man.write(e.dir); err != nil {
		// Do NOT remove the snapshot here: write can fail after the rename
		// actually installed the new MANIFEST (e.g. the directory fsync
		// errored), and deleting a snapshot a committed manifest names
		// would wedge every future boot. An uncommitted orphan is pruned
		// by the next Open instead.
		restoreLag()
		return err
	}

	e.mu.Lock()
	oldSnap, oldStart := e.man.Snapshot, e.segStart
	e.man = man
	e.segStart = cut
	e.damaged = false // the snapshot supersedes any broken segment chain
	e.mu.Unlock()

	// The commit is durable; pruning is best-effort (Open re-prunes). An
	// attached follower's pin caps the sweep: segments it still needs stay
	// on disk — below FirstSegment now, invisible to recovery but exactly
	// where the follower's cursor says they are — and pruneFloor remembers
	// to reclaim them once the pin has moved past.
	pruneTo := cut
	if minPin < pruneTo {
		pruneTo = minPin
	}
	low := oldStart
	if e.pruneFloor < low {
		low = e.pruneFloor
	}
	for idx := low; idx < pruneTo; idx++ {
		if err := os.Remove(e.segPath(idx)); err != nil && !os.IsNotExist(err) {
			e.opts.Logf("wal: pruning %s: %v", segmentName(idx), err)
		}
	}
	e.pruneFloor = pruneTo
	if oldSnap != "" && oldSnap != snap {
		if err := os.Remove(filepath.Join(e.dir, oldSnap)); err != nil && !os.IsNotExist(err) {
			e.opts.Logf("wal: pruning %s: %v", oldSnap, err)
		}
	}
	e.opts.Logf("wal: checkpoint generation %d (%d records, %d bytes folded in)", gen, prevRecords, prevBytes)
	e.met.checkpoint.ObserveSince(cpStart)
	return nil
}

// Stats reports the engine's current durability state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Records:    e.lagRecords,
		Bytes:      e.lagBytes,
		Segments:   int(e.activeIdx - e.segStart + 1),
		Generation: e.man.Generation,
		Syncs:      e.syncCount,
	}
}

// checkpointLoop services threshold kicks from Append.
func (e *Engine) checkpointLoop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case <-e.kick:
			// A kick is a hint, not an order: appends that land between this
			// receive and the checkpoint's cut see the lag still over the
			// threshold and kick again, and a caller-driven checkpoint may
			// have folded the lag in since. Only a lag that is over the
			// threshold now is worth a snapshot of the whole library.
			e.mu.Lock()
			due := e.lagExceededLocked()
			e.mu.Unlock()
			if !due {
				continue
			}
			if err := e.Checkpoint(); err != nil && err != ErrClosed {
				e.opts.Logf("wal: background checkpoint: %v", err)
			}
		}
	}
}

// Close stops the background goroutines, fsyncs any buffered appends, and
// closes the active segment. The engine is unusable afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	e.wg.Wait()
	// Serialise with a caller-driven Checkpoint still in flight (it holds
	// cpMu; new ones bail on the closed flag): without this, Close could
	// release the data-dir flock while a zombie checkpoint keeps pruning
	// segments and rewriting MANIFEST under a successor engine's feet.
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if e.dirty {
		// SyncNever: every record here was already acknowledged at append
		// time (the mode promises no durability before Close), so a failed
		// final flush is reported, never undone. SyncAlways leaves nothing
		// to flush: every append fsynced before it returned.
		err = e.active.Sync()
		e.dirty = false
	}
	if cerr := e.active.Close(); err == nil {
		err = cerr
	}
	e.lock.Close() // releases the data-dir flock
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
