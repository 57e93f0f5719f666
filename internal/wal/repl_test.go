package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// replOpts keeps auto-checkpointing out of the way and rotates segments
// aggressively so a handful of records spans several.
func replOpts() Options {
	return Options{
		SegmentBytes:      512,
		Sync:              SyncNever,
		CheckpointBytes:   -1,
		CheckpointRecords: -1,
	}
}

// pullAll drains follower id's stream from cur to the durable tip through
// repeated bounded ReadFrom calls, returning the decoded payloads and the
// final cursor.
func pullAll(t testing.TB, eng *Engine, id string, cur Cursor, maxBytes int64) ([][]byte, Cursor) {
	t.Helper()
	var out [][]byte
	for {
		batch, next, err := eng.ReadFrom(id, cur, maxBytes)
		if err != nil {
			t.Fatalf("ReadFrom(%+v): %v", cur, err)
		}
		if len(batch) == 0 {
			if next == cur { // at the durable tip
				return out, cur
			}
			// A pure boundary hop (sealed segment exhausted): continue from
			// the head of the next segment.
			cur = next
			continue
		}
		r := bytes.NewReader(batch)
		for {
			frame, rerr := ReadRecord(r)
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				t.Fatalf("decoding shipped batch: %v", rerr)
			}
			out = append(out, append([]byte(nil), frame...))
		}
		cur = next
	}
}

// TestAttachReadFromRoundTrip ships a multi-segment log through bounded
// pulls and verifies the follower sees every record byte-for-byte, the
// backlog drains to zero, and the tip answers with an empty batch.
func TestAttachReadFromRoundTrip(t *testing.T) {
	eng, err := Open(t.TempDir(), replOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want := payloads(40)
	appendAll(t, eng, want)

	cur, err := eng.Attach("f1", Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	pins := eng.Pins()
	if len(pins) != 1 || pins[0].ID != "f1" || pins[0].LagRecords != 40 {
		t.Fatalf("pins after attach = %+v, want f1 40 records behind", pins)
	}
	got, tip := pullAll(t, eng, "f1", cur, 256)
	mustEqual(t, got, want)
	if r, b := eng.MaxPinLag(); r != 0 || b != 0 {
		t.Fatalf("backlog after full drain = %d records %d bytes", r, b)
	}

	// New appends become visible to the same cursor without re-attaching.
	appendAll(t, eng, [][]byte{[]byte("late-record")})
	got, _ = pullAll(t, eng, "f1", tip, 256)
	mustEqual(t, got, [][]byte{[]byte("late-record")})
}

// TestCheckpointPruneStopsAtPin verifies a checkpoint never deletes
// segments an attached follower still needs: with a pin at the log head the
// prune keeps everything, and the follower then replays records that
// predate the checkpoint. Once the cursor advances to the tip the next
// checkpoint reclaims the shipped segments, and the stale pre-checkpoint
// cursor is refused at attach.
func TestCheckpointPruneStopsAtPin(t *testing.T) {
	dir := t.TempDir()
	opts := replOpts()
	opts.SegmentBytes = 128 // the small test payloads must still span several segments
	eng, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := &memState{}
	eng.SetSource(st.snapshot)
	want := payloads(30)
	for _, p := range want {
		if err := eng.Append(p); err != nil {
			t.Fatal(err)
		}
		st.apply(p)
	}
	cur, err := eng.Attach("f1", Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	preSegs, _ := listSegments(dir)
	if len(preSegs) < 3 {
		t.Fatalf("need several segments, got %d", len(preSegs))
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	postSegs, _ := listSegments(dir)
	if postSegs[0] != preSegs[0] {
		t.Fatalf("checkpoint pruned pinned segment %d (chain now starts at %d)", preSegs[0], postSegs[0])
	}
	// The pinned bytes are still served: the follower replays the full
	// pre-checkpoint history.
	got, tip := pullAll(t, eng, "f1", cur, 512)
	mustEqual(t, got, want)

	// The cursor at the tip is the durability ack; the next checkpoint may
	// now prune the shipped segments.
	if _, _, err := eng.ReadFrom("f1", tip, 512); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append([]byte("post-ckpt")); err != nil {
		t.Fatal(err)
	}
	st.apply([]byte("post-ckpt"))
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	prunedSegs, _ := listSegments(dir)
	if prunedSegs[0] <= preSegs[0] {
		t.Fatalf("prune never advanced past the released pin: chain starts at %d", prunedSegs[0])
	}
	// A cursor from before the prune no longer names live bytes.
	eng.Detach("f1")
	if _, err := eng.Attach("f1", cur); !errors.Is(err, ErrBehindHorizon) {
		t.Fatalf("attach at pruned cursor: %v, want ErrBehindHorizon", err)
	}
}

// TestPinBudgetEviction lets a follower fall further behind than the pin
// budget allows and verifies reclamation evicts it rather than wedging:
// the pin disappears, ReadFrom says not-attached, and after the checkpoint
// prunes the log the stale cursor can only re-seed.
func TestPinBudgetEviction(t *testing.T) {
	opts := replOpts()
	opts.ReplPinBudgetBytes = 512
	eng, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := &memState{}
	eng.SetSource(st.snapshot)

	cur, err := eng.Attach("glacial", Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		p := []byte(fmt.Sprintf("budget-%04d-%s", i, string(bytes.Repeat([]byte("y"), 64))))
		if err := eng.Append(p); err != nil {
			t.Fatal(err)
		}
		st.apply(p)
	}
	if _, lagBytes := eng.MaxPinLag(); lagBytes <= opts.ReplPinBudgetBytes {
		t.Fatalf("backlog %d bytes never exceeded the %d budget", lagBytes, opts.ReplPinBudgetBytes)
	}
	// Reclamation (here: a checkpoint) evicts over-budget pins first.
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if pins := eng.Pins(); len(pins) != 0 {
		t.Fatalf("over-budget pin survived reclamation: %+v", pins)
	}
	if _, _, err := eng.ReadFrom("glacial", cur, 1<<20); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("ReadFrom after eviction: %v, want ErrNotAttached", err)
	}
	if _, err := eng.Attach("glacial", cur); !errors.Is(err, ErrBehindHorizon) {
		t.Fatalf("re-attach at evicted cursor: %v, want ErrBehindHorizon", err)
	}
}

// TestSeedReturnsSnapshotAndCursor drives the cold-follower path: before
// any checkpoint Seed hands out no snapshot (the log is the history), after
// one it streams the snapshot and a cursor whose log tail contains exactly
// the records the snapshot does not cover.
func TestSeedReturnsSnapshotAndCursor(t *testing.T) {
	eng, err := Open(t.TempDir(), replOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := &memState{}
	eng.SetSource(st.snapshot)

	rc, _, err := eng.Seed("cold")
	if err != nil {
		t.Fatal(err)
	}
	if rc != nil {
		rc.Close()
		t.Fatal("never-checkpointed engine produced a snapshot")
	}
	eng.Detach("cold")

	base := payloads(10)
	for _, p := range base {
		if err := eng.Append(p); err != nil {
			t.Fatal(err)
		}
		st.apply(p)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tail := [][]byte{[]byte("tail-a"), []byte("tail-b")}
	appendAll(t, eng, tail)

	rc, cur, err := eng.Seed("cold")
	if err != nil {
		t.Fatal(err)
	}
	if rc == nil {
		t.Fatal("no snapshot after checkpoint")
	}
	snap, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	(&memState{recs: base}).snapshot(&want)
	if !bytes.Equal(snap, want.Bytes()) {
		t.Fatalf("seed snapshot mismatch:\n%s\nvs\n%s", snap, want.Bytes())
	}
	got, _ := pullAll(t, eng, "cold", cur, 1<<20)
	mustEqual(t, got, tail)
}

// TestReadFromPastTipReseeds covers the relaxed-sync crash asymmetry: a
// follower whose cursor runs ahead of the leader's durable log must be told
// to re-seed, not silently wait for bytes that will never exist.
func TestReadFromPastTipReseeds(t *testing.T) {
	eng, err := Open(t.TempDir(), replOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	appendAll(t, eng, payloads(3))
	cur, err := eng.Attach("ahead", Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	_, tip := pullAll(t, eng, "ahead", cur, 1<<20)
	past := Cursor{Segment: tip.Segment, Offset: tip.Offset + 64}
	if _, _, err := eng.ReadFrom("ahead", past, 1<<20); !errors.Is(err, ErrBehindHorizon) {
		t.Fatalf("cursor past the tip: %v, want ErrBehindHorizon", err)
	}
}

// TestDurableNotifyWakesOnAppend parks on the notification channel and
// verifies one append closes it — the primitive long-poll pulls block on.
func TestDurableNotifyWakesOnAppend(t *testing.T) {
	eng, err := Open(t.TempDir(), replOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ch := eng.DurableNotify()
	select {
	case <-ch:
		t.Fatal("notify channel closed before any append")
	default:
	}
	if err := eng.Append([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("append never signalled the durable notify channel")
	}
}
