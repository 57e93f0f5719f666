package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"classminer/internal/store"
)

// Sealed-segment compaction. A checkpoint rewrites the whole library to
// drop superseded log; compaction reclaims the same waste far cheaper by
// rewriting only the sealed segments that actually shrank. A record is
// dead once a *later* tombstone or replace record exists for its key:
// whatever it contributed to replay, the later record fully overrides
// (replace installs its own payload regardless of prior state, tombstone
// deletes regardless of prior state). A plain register never supersedes —
// replay skips it when the key already exists, so records before it still
// decide the outcome and must survive.
//
// Commit protocol, crash-safe at every step:
//
//  1. Each shrinking sealed segment is rewritten through
//     store.WriteFileAtomic — temp file, fsync, rename over the live name,
//     directory fsync. A crash leaves either the old or the new segment
//     fully live (plus at worst an orphaned temp, pruned by the next
//     Open). Records keep their relative order and their segment, so any
//     mix of old and new segments is a valid replay chain.
//  2. If the leading segments emptied completely, a new MANIFEST with
//     FirstSegment advanced past them is committed (the same atomically-
//     replaced versioned manifest checkpoints use), and only then are the
//     empty files removed — a crash in between leaves files the next Open
//     prunes as stale. Mid-chain segments that emptied stay as zero-byte
//     files: deleting one would look like a damaged chain to Replay.
//
// Compaction never touches the active segment (appends own it); dead
// records there are picked up after rotation seals them.

// CompactResult reports what one Compact pass did.
type CompactResult struct {
	// SegmentsScanned is how many sealed segments were considered.
	SegmentsScanned int `json:"segmentsScanned"`
	// SegmentsCompacted is how many were rewritten smaller.
	SegmentsCompacted int `json:"segmentsCompacted"`
	// SegmentsRemoved is how many fully-empty leading segments were
	// dropped from the chain via the manifest.
	SegmentsRemoved int `json:"segmentsRemoved"`
	// RecordsDropped and BytesFreed total the reclaimed log.
	RecordsDropped int64 `json:"recordsDropped"`
	BytesFreed     int64 `json:"bytesFreed"`
}

// recPos orders records across the live log: segment index first, then the
// record's ordinal within its segment.
type recPos struct {
	seg uint64
	rec int64
}

func (p recPos) after(q recPos) bool {
	return p.seg > q.seg || (p.seg == q.seg && p.rec > q.rec)
}

// Compact rewrites the sealed segments, dropping every record superseded by
// a later tombstone or replace for the same key, and advances the manifest
// past leading segments that emptied. It is safe to run concurrently with
// appends (rotation included) and serialises with checkpoints; replayed
// state is identical before and after. A frame that does not decode is
// never evidence and never dropped.
func (e *Engine) Compact() (CompactResult, error) {
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	cStart := time.Now()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return CompactResult{}, ErrClosed
	}
	if e.damaged {
		e.mu.Unlock()
		return CompactResult{}, fmt.Errorf("wal: refusing to compact a damaged segment chain (checkpoint heals it first)")
	}
	start, end := e.segStart, e.activeIdx // sealed segments: [start, end)
	activeLimit := e.activeSize
	if e.opts.Sync == SyncAlways {
		// Group commit means activeSize can run ahead of what is durable
		// (frames staged but not yet fsynced — and clawed back wholesale if
		// that fsync fails). Only durable records may serve as evidence for
		// dropping fsynced sealed registrations; unsynced tombstones are
		// simply invisible to this pass and reclaimed by the next one.
		activeLimit = e.durableSize
	}
	activeFile := e.active
	deadRecs0, deadBytes0 := e.deadRecords, e.deadBytes
	// Attached followers pin the log: nothing at or past the oldest pin may
	// be rewritten or removed, because a mid-segment cursor is only valid
	// against the exact bytes that were shipped. Followers whose backlog
	// exceeds the pin budget are evicted first (they will re-seed), so one
	// dead replica can never wedge reclamation. minPin can only rise while
	// cpMu is held — Attach needs cpMu and ReadFrom moves cursors forward —
	// so capturing it once here covers the whole pass.
	e.evictOverBudgetLocked()
	minPin := e.minPinLocked()
	e.mu.Unlock()

	res := CompactResult{SegmentsScanned: int(end - start)}
	if end <= start {
		return res, nil
	}
	reclaimEnd := end // sealed segments eligible for rewrite/removal: [start, reclaimEnd)
	if minPin < reclaimEnd {
		reclaimEnd = minPin
	}

	// The active segment's records are about to justify durably dropping
	// fsynced sealed registrations, so they must be just as durable first:
	// under SyncInterval/SyncNever an acknowledged-but-unsynced tombstone
	// could vanish to power loss (torn-tail truncation) *after* the
	// registration it killed was already rewritten away — a combined state
	// that never existed. Sync before reading (SyncAlways has nothing
	// pending). If a rotation sealed the captured file meanwhile,
	// rotateLocked already synced it — a closed-file error means the bytes
	// are safe.
	if e.opts.Sync != SyncAlways {
		if err := activeFile.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
			return res, fmt.Errorf("wal: syncing active segment before compaction: %w", err)
		}
	}

	// Pass 1: one full read of the live log, collecting (a) the last
	// superseding record per key — active segment included, since a
	// tombstone usually lands there long after the registration it kills
	// was sealed — and (b) per-record (key, size) metadata for every
	// sealed segment, so the rewrite pass can decide each segment's fate
	// without re-reading or re-decoding it. Appends racing past
	// activeLimit are missed, which only means a record stays alive one
	// compaction longer.
	super := map[string]recPos{}
	type recMeta struct {
		key  string // "" = unclassifiable: never evidence, never dropped
		size int64
	}
	sealed := make(map[uint64][]recMeta, end-start)
	var active []recMeta
	var rec Record // scratch, reused across every frame of the pass
	for idx := start; idx <= end; idx++ {
		limit := int64(-1)
		if idx == end {
			limit = activeLimit
		}
		err := e.scanSegment(idx, limit, func(ord int64, frame []byte) error {
			m := recMeta{size: int64(len(frame)) + FrameOverhead}
			if derr := DecodeRecordInto(&rec, frame); derr == nil && rec.Key != "" {
				m.key = rec.Key
				if rec.supersedes() {
					pos := recPos{seg: idx, rec: ord}
					if cur, ok := super[rec.Key]; !ok || pos.after(cur) {
						super[rec.Key] = pos
					}
				}
			}
			if idx == end {
				active = append(active, m)
			} else {
				sealed[idx] = append(sealed[idx], m)
			}
			return nil
		})
		if err != nil {
			return res, err
		}
	}
	// deadAt reports whether the record at (idx, ord) is superseded by a
	// strictly later record for the same key.
	deadAt := func(key string, idx uint64, ord int64) bool {
		if key == "" {
			return false
		}
		sp, ok := super[key]
		return ok && sp.after(recPos{seg: idx, rec: ord})
	}

	// A rewrite invalidates every replication cursor pointing into the old
	// bytes. The compaction epoch is bumped and committed *before* the first
	// rewrite so a crash in between errs toward a needless follower re-seed,
	// never toward replaying from a stale offset: any cursor minted under
	// the old epoch is refused at re-attach. (Attached pins are unaffected —
	// their segments are excluded from rewriting entirely.)
	anyRewrite := false
	for idx := start; idx < reclaimEnd && !anyRewrite; idx++ {
		for ord, m := range sealed[idx] {
			if deadAt(m.key, idx, int64(ord)) {
				anyRewrite = true
				break
			}
		}
	}
	if anyRewrite {
		e.mu.Lock()
		man := e.man
		e.mu.Unlock()
		man.Compactions++
		if err := man.write(e.dir); err != nil {
			return res, err
		}
		e.mu.Lock()
		e.man = man
		e.mu.Unlock()
	}

	// Pass 2: rewrite only the sealed segments that actually lost records
	// (decided from pass 1's metadata — untouched segments are never read
	// again). Each shrinking segment is re-read from disk so only its
	// surviving frames are in memory at a time. Lag and dead counters are
	// adjusted per committed segment, not at the end: if a later rewrite
	// fails (disk full), the records already physically dropped must not
	// stay counted. decRecs/decBytes remember how much of the dead
	// estimate those adjustments consumed, so the final exact reset can
	// still separate "noted while we ran" from "already accounted".
	segBytes := make(map[uint64]int64, end-start)
	var decRecs, decBytes int64
	account := func(records, bytes int64) {
		e.mu.Lock()
		e.lagRecords -= records
		e.lagBytes -= bytes
		dr, db := records, bytes
		if dr > e.deadRecords {
			dr = e.deadRecords
		}
		if db > e.deadBytes {
			db = e.deadBytes
		}
		e.deadRecords -= dr
		e.deadBytes -= db
		decRecs += dr
		decBytes += db
		e.mu.Unlock()
	}
	// Fully-dead segments at the head of the chain are not rewritten at
	// all: the manifest advance below removes them wholesale, so paying a
	// temp-write + two fsyncs to produce a zero-byte file first would be
	// waste. Their drops are deferred and accounted only once the advance
	// commits (until then the records are still live on disk).
	type dropTally struct{ records, bytes int64 }
	deferred := map[uint64]dropTally{}
	leadingEmpty := true
	// Dead records in pinned segments are real waste this pass must leave in
	// place; they are tallied so the residual estimate below still counts
	// them (a later pass reclaims them once the pins move on).
	var pinnedDeadRecs, pinnedDeadBytes int64
	for idx := start; idx < end; idx++ {
		var dropped, droppedBytes, total int64
		for ord, m := range sealed[idx] {
			total += m.size
			if deadAt(m.key, idx, int64(ord)) {
				dropped++
				droppedBytes += m.size
			}
		}
		if idx >= reclaimEnd {
			segBytes[idx] = total
			if total > 0 {
				leadingEmpty = false
			}
			pinnedDeadRecs += dropped
			pinnedDeadBytes += droppedBytes
			continue
		}
		keptBytes := total - droppedBytes
		segBytes[idx] = keptBytes
		if leadingEmpty && keptBytes == 0 && dropped > 0 {
			deferred[idx] = dropTally{records: dropped, bytes: droppedBytes}
			continue
		}
		if keptBytes > 0 {
			leadingEmpty = false
		}
		if dropped == 0 {
			continue
		}
		var kept [][]byte
		err := e.scanSegment(idx, -1, func(ord int64, frame []byte) error {
			// The segment is sealed and cpMu is held, so it cannot have
			// changed since pass 1; the bounds guard is pure paranoia.
			if ord < int64(len(sealed[idx])) && deadAt(sealed[idx][ord].key, idx, ord) {
				return nil
			}
			// Retaining frame is safe: ReadRecord allocates each payload
			// fresh and scanSegment never reuses it.
			kept = append(kept, frame)
			return nil
		})
		if err != nil {
			return res, err
		}
		err = store.WriteFileAtomic(e.segPath(idx), func(w io.Writer) error {
			var buf []byte
			for _, frame := range kept {
				buf = appendRecord(buf[:0], frame)
				if _, werr := w.Write(buf); werr != nil {
					return werr
				}
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("wal: rewriting %s: %w", segmentName(idx), err)
		}
		res.SegmentsCompacted++
		res.RecordsDropped += dropped
		res.BytesFreed += droppedBytes
		account(dropped, droppedBytes)
		e.opts.Logf("wal: compacted %s (%d records, %d bytes dropped)", segmentName(idx), dropped, droppedBytes)
		if err := e.hook("rewrite", idx); err != nil {
			return res, err
		}
	}

	// Leading segments that emptied can leave the chain entirely; the
	// manifest commit is what makes their removal crash-safe.
	newFirst := start
	for newFirst < reclaimEnd && segBytes[newFirst] == 0 {
		newFirst++
	}
	if newFirst > start {
		if err := e.hook("pre-manifest", newFirst); err != nil {
			return res, err
		}
		e.mu.Lock()
		man := e.man
		e.mu.Unlock()
		man.FirstSegment = newFirst
		if err := man.write(e.dir); err != nil {
			return res, err
		}
		e.mu.Lock()
		e.man = man
		e.segStart = newFirst
		e.mu.Unlock()
		if err := e.hook("manifest", newFirst); err != nil {
			return res, err
		}
		for idx := start; idx < newFirst; idx++ {
			if err := os.Remove(e.segPath(idx)); err != nil && !os.IsNotExist(err) {
				e.opts.Logf("wal: pruning %s: %v", segmentName(idx), err)
			}
			res.SegmentsRemoved++
			if d, ok := deferred[idx]; ok {
				// The manifest no longer names the segment, so its deferred
				// drops are real now.
				res.RecordsDropped += d.records
				res.BytesFreed += d.bytes
				account(d.records, d.bytes)
				e.opts.Logf("wal: removed fully-dead %s (%d records, %d bytes dropped)",
					segmentName(idx), d.records, d.bytes)
			}
		}
	}

	// Residual dead log: records in the active segment a sealed-side
	// supersession rule cannot reach yet.
	var deadActiveRecs, deadActiveBytes int64
	for ord, m := range active {
		if deadAt(m.key, end, int64(ord)) {
			deadActiveRecs++
			deadActiveBytes += m.size
		}
	}

	// Replace the dead estimate with the exact residue plus whatever was
	// noted while we ran (those records were not considered this pass):
	// current = start + noted - consumed, so noted = current - start +
	// consumed, and the clamped per-segment decrements above keep it
	// non-negative.
	e.mu.Lock()
	e.deadRecords = deadActiveRecs + pinnedDeadRecs + (e.deadRecords - deadRecs0 + decRecs)
	e.deadBytes = deadActiveBytes + pinnedDeadBytes + (e.deadBytes - deadBytes0 + decBytes)
	// Pinned dead bytes are as unreachable as active-side ones until the
	// pins move on, so fold them into the trigger's residue too — a lagging
	// follower must not convert the dead backlog into a loop of futile
	// passes. (Rotation still zeroes the residue; at worst that costs one
	// re-scan per rotation while a pin holds the log.)
	e.deadActiveBytes = deadActiveBytes + pinnedDeadBytes
	e.mu.Unlock()

	if res.RecordsDropped > 0 || res.SegmentsRemoved > 0 {
		e.opts.Logf("wal: compaction dropped %d records (%d bytes) across %d segments, removed %d",
			res.RecordsDropped, res.BytesFreed, res.SegmentsCompacted, res.SegmentsRemoved)
	}
	e.met.compact.ObserveSince(cStart)
	return res, nil
}

// scanSegment reads segment idx's framed records in order, invoking fn with
// each record's ordinal and payload. limit >= 0 caps the read to that many
// leading bytes (the snapshot of the active segment's acknowledged size);
// the cap always falls on a record boundary. Unlike replay, compaction has
// no licence to stop early: damage in a segment it is about to rewrite is
// an error, not a truncation point.
func (e *Engine) scanSegment(idx uint64, limit int64, fn func(ord int64, frame []byte) error) error {
	f, err := os.Open(e.segPath(idx))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if limit >= 0 {
		r = io.LimitReader(f, limit)
	}
	br := bufio.NewReader(r)
	for ord := int64(0); ; ord++ {
		frame, rerr := ReadRecord(br)
		if rerr == io.EOF {
			return nil
		}
		if errors.Is(rerr, ErrTorn) || errors.Is(rerr, ErrCorrupt) {
			return fmt.Errorf("wal: compacting %s: %w", segmentName(idx), rerr)
		}
		if rerr != nil {
			return rerr
		}
		if err := fn(ord, frame); err != nil {
			return err
		}
	}
}

// hook runs the test-only fault-injection hook, if any.
func (e *Engine) hook(stage string, seg uint64) error {
	e.mu.Lock()
	h := e.compactHook
	e.mu.Unlock()
	if h == nil {
		return nil
	}
	return h(stage, seg)
}
