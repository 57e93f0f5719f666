package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Log shipping: the leader-side export surface replication is built on. A
// follower holds a Cursor — a durable (segment, offset) position — and
// repeatedly asks the engine for the framed records between its cursor and
// the durable tip. While a follower is attached its cursor pins the log:
// Checkpoint never deletes a segment at or past the oldest pin, so the bytes
// a follower still needs stay exactly where its cursor says they are. The pin
// budget bounds how much reclaimable log a lagging follower may hold hostage:
// past it the pin is evicted and the follower's next pull gets
// ErrBehindHorizon, which means "re-seed from the newest snapshot" — the
// log never wedges waiting for a dead replica.
//
// Validity rule: segment numbers are never reused, appends only ever extend
// the active segment, and a sealed segment's bytes never change again — the
// only thing that happens to one is a checkpoint deleting it whole. So a
// cursor is good for as long as its segment exists, and "the segment is
// live and the offset is a record boundary of it" is all Attach checks when
// a follower re-attaches after a leader restart or a pin eviction.

// Cursor is a follower's durable position in the leader's log: the next
// record to ship starts at Offset within Segment.
type Cursor struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

// before orders cursors by log position.
func (c Cursor) before(d Cursor) bool {
	return c.Segment < d.Segment || (c.Segment == d.Segment && c.Offset < d.Offset)
}

// ErrBehindHorizon means the log can no longer serve the requested cursor —
// a checkpoint pruned its segment, or the pin was evicted past its budget.
// The follower's only correct move is a snapshot re-seed.
var ErrBehindHorizon = errors.New("wal: cursor behind the checkpoint horizon; re-seed from snapshot")

// ErrNotAttached means ReadFrom was called for a follower id with no live
// pin (never attached, evicted, or the engine restarted). The caller should
// Attach — which validates the cursor — and retry.
var ErrNotAttached = errors.New("wal: follower not attached")

// replPin is one attached follower's claim on the log. cursor is the last
// position the follower *requested* — evidence it durably applied everything
// before it — and is what checkpoint pruning must preserve.
// lagRecords/lagBytes track the unshipped backlog: advanced as records
// become durable, drained as ReadFrom ships them.
type replPin struct {
	cursor     Cursor
	lagRecords int64
	lagBytes   int64
}

// PinStats is one attached follower's replication state, for /v1/stats and
// the per-follower lag gauges.
type PinStats struct {
	ID         string `json:"id"`
	Cursor     Cursor `json:"cursor"`
	LagRecords int64  `json:"lagRecords"`
	LagBytes   int64  `json:"lagBytes"`
}

// Pins reports every attached follower, sorted by id.
func (e *Engine) Pins() []PinStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]PinStats, 0, len(e.pins))
	for id, p := range e.pins {
		out = append(out, PinStats{ID: id, Cursor: p.cursor, LagRecords: p.lagRecords, LagBytes: p.lagBytes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MaxPinLag reports the worst attached follower's backlog, the signal the
// leader's write-path backpressure sheds on.
func (e *Engine) MaxPinLag() (records, bytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.pins {
		if p.lagRecords > records {
			records = p.lagRecords
		}
		if p.lagBytes > bytes {
			bytes = p.lagBytes
		}
	}
	return records, bytes
}

// DurableNotify returns a channel closed the next time the durable tip
// advances (an append returns). Long-polling pullers park on it instead of
// spinning.
func (e *Engine) DurableNotify() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.durableCh == nil {
		e.durableCh = make(chan struct{})
	}
	return e.durableCh
}

// advancePinsLocked accounts newly durable records to every attached
// follower's backlog and wakes the long-pollers. Callers hold e.mu and pass
// the record/byte count that just became shippable.
func (e *Engine) advancePinsLocked(records, bytes int64) {
	if records <= 0 {
		return
	}
	for _, p := range e.pins {
		p.lagRecords += records
		p.lagBytes += bytes
	}
	if e.durableCh != nil {
		close(e.durableCh)
		e.durableCh = nil
	}
}

// Attach registers (or re-registers) follower id at cur, validating that the
// log can actually serve it: the segment must still be live and the offset
// must fall on a record boundary of it. On success the cursor pins the log
// from cur onward and the pin's backlog is an exact scan of cursor→tip. A
// zero cursor (never minted — Segment == 0) attaches at the oldest live
// segment.
func (e *Engine) Attach(id string, cur Cursor) (Cursor, error) {
	if id == "" {
		return Cursor{}, fmt.Errorf("wal: empty follower id")
	}
	// cpMu keeps a checkpoint from moving the horizon while the cursor is
	// validated and the backlog scanned (lock order cpMu < mu).
	e.cpMu.Lock()
	defer e.cpMu.Unlock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Cursor{}, ErrClosed
	}
	if cur.Segment == 0 { // never minted: start at the oldest live segment
		cur = Cursor{Segment: e.segStart}
	}
	if cur.Segment < e.segStart || cur.Segment > e.activeIdx {
		e.mu.Unlock()
		return Cursor{}, fmt.Errorf("%w (segment %d outside [%d,%d])", ErrBehindHorizon, cur.Segment, e.segStart, e.activeIdx)
	}
	tip := e.tipLocked()
	// Register before scanning: records that become durable during the scan
	// land in advancePinsLocked, the scan covers everything before the tip
	// captured here, and the two partitions meet exactly.
	pin := &replPin{cursor: cur}
	if e.pins == nil {
		e.pins = map[string]*replPin{}
	}
	e.pins[id] = pin
	e.mu.Unlock()

	records, bytes, err := e.scanBacklog(cur, tip)
	if err != nil {
		e.mu.Lock()
		if e.pins[id] == pin {
			delete(e.pins, id)
		}
		e.mu.Unlock()
		return Cursor{}, err
	}
	e.mu.Lock()
	pin.lagRecords += records
	pin.lagBytes += bytes
	e.mu.Unlock()
	e.opts.Logf("wal: follower %q attached at segment %d offset %d (%d records, %d bytes behind)",
		id, cur.Segment, cur.Offset, records, bytes)
	return cur, nil
}

// Detach drops follower id's pin, releasing its hold on the log.
func (e *Engine) Detach(id string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.pins, id)
}

// tipLocked is the durable end of the log: everything before it may be
// shipped. An append writes (and, under SyncAlways, fsyncs) its frame before
// it releases e.mu, so every byte of the active segment is acknowledged.
func (e *Engine) tipLocked() Cursor {
	return Cursor{Segment: e.activeIdx, Offset: e.activeSize}
}

// scanBacklog counts the records and bytes between cur and tip, verifying on
// the way that cur.Offset lands on a record boundary (the scan starts at the
// segment head, so an offset that was never minted by this log is caught by
// frame arithmetic, not silently replayed). Runs without e.mu: cpMu is held
// by the caller, segments at or past cur are pinned, and the active segment
// is read only up to the pre-captured tip.
func (e *Engine) scanBacklog(cur, tip Cursor) (records, bytes int64, err error) {
	for seg := cur.Segment; seg <= tip.Segment; seg++ {
		limit := int64(-1)
		if seg == tip.Segment {
			limit = tip.Offset
		}
		var off int64
		aligned := cur.Segment != seg || cur.Offset == 0
		serr := e.scanSegment(seg, limit, func(frame []byte) {
			size := int64(len(frame)) + FrameOverhead
			if seg == cur.Segment {
				if off == cur.Offset {
					aligned = true
				}
				if off >= cur.Offset {
					records++
					bytes += size
				}
			} else {
				records++
				bytes += size
			}
			off += size
		})
		if serr != nil {
			if errors.Is(serr, ErrTorn) || errors.Is(serr, ErrCorrupt) || os.IsNotExist(errors.Unwrap(serr)) {
				return 0, 0, fmt.Errorf("%w (%v)", ErrBehindHorizon, serr)
			}
			return 0, 0, serr
		}
		if seg == cur.Segment {
			if off == cur.Offset {
				aligned = true // cursor exactly at this segment's end
			}
			if !aligned || cur.Offset > off {
				return 0, 0, fmt.Errorf("%w (offset %d not on a record boundary of segment %d)", ErrBehindHorizon, cur.Offset, seg)
			}
		}
	}
	return records, bytes, nil
}

// scanSegment reads segment idx's framed records in order, invoking fn with
// each record's payload. limit >= 0 caps the read to that many leading bytes
// (the snapshot of the active segment's acknowledged size); the cap always
// falls on a record boundary. Unlike replay, a backlog scan has no licence
// to stop early: damage between a cursor and the tip is an error, not a
// truncation point.
func (e *Engine) scanSegment(idx uint64, limit int64, fn func(frame []byte)) error {
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
	for {
		frame, rerr := ReadRecord(br)
		if rerr == io.EOF {
			return nil
		}
		if errors.Is(rerr, ErrTorn) || errors.Is(rerr, ErrCorrupt) {
			return fmt.Errorf("wal: scanning %s: %w", segmentName(idx), rerr)
		}
		if rerr != nil {
			return rerr
		}
		fn(frame)
	}
}

// ReadFrom ships the framed records between cur and the durable tip, up to
// roughly maxBytes (always at least one whole record when any is available),
// returning the raw frames and the cursor the follower should pull from
// next. An empty batch with next == cur means the follower is at the tip —
// park on DurableNotify. Calling ReadFrom is also the follower's durability
// acknowledgement: cur says everything before it is applied and persisted,
// so the pin advances to cur and earlier segments become reclaimable.
func (e *Engine) ReadFrom(id string, cur Cursor, maxBytes int64) ([]byte, Cursor, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, cur, ErrClosed
	}
	pin, ok := e.pins[id]
	if !ok {
		e.mu.Unlock()
		return nil, cur, ErrNotAttached
	}
	if pin.cursor.before(cur) {
		// The follower asking for cur proves everything before it is durably
		// applied; releasing the pin up to cur is what lets checkpoint
		// pruning move past shipped log.
		pin.cursor = cur
	}
	tip := e.tipLocked()
	e.mu.Unlock()

	if !cur.before(tip) {
		if cur.Segment > tip.Segment || (cur.Segment == tip.Segment && cur.Offset > tip.Offset) {
			// Ahead of the leader's durable log: the leader lost a tail the
			// follower already applied (relaxed-sync crash). Converge by
			// re-seeding.
			return nil, cur, fmt.Errorf("%w (cursor past the durable tip)", ErrBehindHorizon)
		}
		return nil, cur, nil
	}

	var out []byte
	var shippedRecs, shippedBytes int64
	next := cur
	for next.before(tip) && int64(len(out)) < maxBytes {
		f, err := os.Open(e.segPath(next.Segment))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, cur, fmt.Errorf("%w (segment %d pruned)", ErrBehindHorizon, next.Segment)
			}
			return nil, cur, fmt.Errorf("wal: %w", err)
		}
		if next.Offset > 0 {
			if _, err := f.Seek(next.Offset, io.SeekStart); err != nil {
				f.Close()
				return nil, cur, fmt.Errorf("wal: %w", err)
			}
		}
		var r io.Reader = f
		if next.Segment == tip.Segment {
			r = io.LimitReader(f, tip.Offset-next.Offset)
		}
		br := bufio.NewReader(r)
		for int64(len(out)) < maxBytes {
			frame, rerr := ReadRecord(br)
			if rerr == io.EOF {
				if next.Segment == tip.Segment {
					next.Offset = tip.Offset
				} else {
					// Sealed segment exhausted: continue at the head of the
					// next one.
					next = Cursor{Segment: next.Segment + 1}
				}
				break
			}
			if rerr != nil {
				f.Close()
				if errors.Is(rerr, ErrTorn) || errors.Is(rerr, ErrCorrupt) {
					return nil, cur, fmt.Errorf("%w (%v at segment %d offset %d)", ErrBehindHorizon, rerr, next.Segment, next.Offset)
				}
				return nil, cur, rerr
			}
			out = appendRecord(out, frame)
			size := int64(len(frame)) + FrameOverhead
			next.Offset += size
			shippedRecs++
			shippedBytes += size
		}
		f.Close()
	}

	e.mu.Lock()
	if p, ok := e.pins[id]; ok && p == pin {
		// Drain the shipped records from the backlog. A follower that crashed
		// between receiving and applying re-pulls the same range, so the
		// drain can double-count; clamp at zero — the estimate heals as the
		// cursor advances and fully resets on re-attach.
		if pin.lagRecords -= shippedRecs; pin.lagRecords < 0 {
			pin.lagRecords = 0
		}
		if pin.lagBytes -= shippedBytes; pin.lagBytes < 0 {
			pin.lagBytes = 0
		}
	}
	e.mu.Unlock()
	e.met.shipRecords.Add(uint64(shippedRecs))
	e.met.shipBytes.Add(uint64(shippedBytes))
	return out, next, nil
}

// Seed opens the current checkpoint snapshot for a cold (or
// behind-the-horizon) follower and pins the log at the exact cursor the
// snapshot's state continues from: the oldest live segment's head. The
// returned reader is nil when no checkpoint has completed yet — the log
// alone is then the full history. The pin is registered before Seed
// returns, so nothing the follower needs can be reclaimed between the seed
// and its first pull.
func (e *Engine) Seed(id string) (io.ReadCloser, Cursor, error) {
	if id == "" {
		return nil, Cursor{}, fmt.Errorf("wal: empty follower id")
	}
	e.cpMu.Lock()
	defer e.cpMu.Unlock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, Cursor{}, ErrClosed
	}
	cur := Cursor{Segment: e.segStart}
	snap := e.man.Snapshot
	tip := e.tipLocked()
	pin := &replPin{cursor: cur}
	if e.pins == nil {
		e.pins = map[string]*replPin{}
	}
	e.pins[id] = pin
	e.mu.Unlock()

	fail := func(err error) (io.ReadCloser, Cursor, error) {
		e.mu.Lock()
		if e.pins[id] == pin {
			delete(e.pins, id)
		}
		e.mu.Unlock()
		return nil, Cursor{}, err
	}
	records, bytes, err := e.scanBacklog(cur, tip)
	if err != nil {
		return fail(err)
	}
	e.mu.Lock()
	pin.lagRecords += records
	pin.lagBytes += bytes
	e.mu.Unlock()

	var rc io.ReadCloser
	if snap != "" {
		f, err := os.Open(filepath.Join(e.dir, snap))
		if err != nil {
			return fail(fmt.Errorf("wal: %w", err))
		}
		rc = f
	}
	e.opts.Logf("wal: follower %q seeded (snapshot %q, log from segment %d, %d records behind)",
		id, snap, cur.Segment, records)
	return rc, cur, nil
}

// evictOverBudgetLocked drops pins whose unshipped backlog exceeds the pin
// budget, so one dead or glacial follower cannot hold the whole log hostage.
// The evicted follower's next pull fails ErrNotAttached, its re-Attach is
// validated against whatever the log looks like by then, and the worst case
// is a snapshot re-seed — never a wedged prune. Callers hold e.mu.
func (e *Engine) evictOverBudgetLocked() {
	budget := e.opts.ReplPinBudgetBytes
	if budget <= 0 {
		return
	}
	for id, p := range e.pins {
		if p.lagBytes > budget {
			e.opts.Logf("wal: evicting follower %q pin (%d bytes behind exceeds %d budget)", id, p.lagBytes, budget)
			delete(e.pins, id)
		}
	}
}

// minPinLocked is the oldest segment an attached follower still needs; no
// reclamation may touch segments at or past it. Returns ^uint64(0) when no
// follower is attached. Callers hold e.mu.
func (e *Engine) minPinLocked() uint64 {
	min := ^uint64(0)
	for _, p := range e.pins {
		if p.cursor.Segment < min {
			min = p.cursor.Segment
		}
	}
	return min
}
