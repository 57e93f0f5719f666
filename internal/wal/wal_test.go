package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collect replays eng into a slice of payload copies.
func collect(t testing.TB, eng *Engine) [][]byte {
	t.Helper()
	var out [][]byte
	if err := eng.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, string(bytes.Repeat([]byte{byte('a' + i%26)}, i%40))))
	}
	return out
}

func appendAll(t testing.TB, eng *Engine, recs [][]byte) {
	t.Helper()
	for i, r := range recs {
		if err := eng.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func mustEqual(t testing.TB, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var log []byte
	want := payloads(20)
	for _, p := range want {
		log = appendRecord(log, p)
	}
	r := bytes.NewReader(log)
	for i, p := range want {
		got, err := ReadRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("record %d: got %q, want %q", i, got, p)
		}
	}
	if _, err := ReadRecord(r); err != io.EOF {
		t.Fatalf("end of log: %v, want io.EOF", err)
	}
}

func TestReadRecordRejectsZeroLength(t *testing.T) {
	// A zero-filled tail (preallocated blocks after power loss) must read
	// as corruption, not as an endless stream of empty records.
	if _, err := ReadRecord(bytes.NewReader(make([]byte, 64))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-filled log: %v, want ErrCorrupt", err)
	}
}

func TestAppendAndReplay(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(50)
	appendAll(t, eng, want)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	mustEqual(t, collect(t, eng2), want)
	st := eng2.Stats()
	if st.Records != 50 || st.Generation != 0 {
		t.Fatalf("stats = %+v, want 50 records at generation 0", st)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(80)
	appendAll(t, eng, want)
	if segs, _ := listSegments(dir); len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	mustEqual(t, collect(t, eng2), want)
}

// TestTornTailTruncated cuts the active segment mid-record and verifies the
// reopened engine truncates the torn frame, replays the intact prefix, and
// appends cleanly after it.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(10)
	appendAll(t, eng, want)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	path := filepath.Join(dir, segmentName(segs[0]))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the last record's payload: 5 bytes short of its end.
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, collect(t, eng2), want[:9])
	if fi2, _ := os.Stat(path); fi2.Size() >= fi.Size()-5 {
		t.Fatalf("torn tail not truncated: %d bytes", fi2.Size())
	}
	// The log must keep working after the repair.
	if err := eng2.Append([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	eng3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	got := collect(t, eng3)
	mustEqual(t, got, append(append([][]byte{}, want[:9]...), []byte("after-crash")))
}

// TestCorruptRecordStopsReplay flips a byte in the middle of the log and
// verifies replay yields the prefix before the damaged frame and nothing
// after it (skip-and-stop, never resync into garbage).
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(10)
	appendAll(t, eng, want)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segmentName(segs[0]))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate record 5's payload start and flip one bit there.
	off := int64(0)
	for i := 0; i < 5; i++ {
		off += headerSize + int64(len(want[i]))
	}
	raw[off+headerSize] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	mustEqual(t, collect(t, eng2), want[:5])
}

// TestRotationFailureDoesNotWedge blocks a rotation (next segment name
// already taken, so O_EXCL fails) and verifies the engine keeps the old
// segment usable: the failed append errors out, and once the obstruction
// clears, appends — and a clean replay of every acknowledged record —
// succeed again.
func TestRotationFailureDoesNotWedge(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	first := []byte(string(bytes.Repeat([]byte("a"), 80)))
	if err := eng.Append(first); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, segmentName(2))
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append([]byte("blocked")); err == nil {
		t.Fatal("append with blocked rotation succeeded")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append([]byte("recovered-append")); err != nil {
		t.Fatalf("append after obstruction cleared: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	mustEqual(t, collect(t, eng2), [][]byte{first, []byte("recovered-append")})
}

// TestDamagedChainHealedByCheckpoint corrupts a sealed mid-chain segment:
// replay must stop there and report damage, and a checkpoint must reseat
// the log so records appended after the damage survive the next recovery.
func TestDamagedChainHealedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{SegmentBytes: 200, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(40)
	appendAll(t, eng, want)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Flip a byte early in the second segment: everything from there on is
	// unreachable by replay.
	mid := filepath.Join(dir, segmentName(segs[1]))
	raw, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize] ^= 0x01
	if err := os.WriteFile(mid, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(dir, Options{SegmentBytes: 200, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	recovered := collect(t, eng2)
	if !eng2.ReplayDamaged() {
		t.Fatal("mid-chain damage not reported")
	}
	if len(recovered) >= len(want) {
		t.Fatalf("replayed %d records through damage", len(recovered))
	}
	// Heal exactly as Recover does: snapshot what was recovered, then
	// verify post-damage appends survive the next crash.
	st := &memState{recs: recovered}
	eng2.SetSource(st.snapshot)
	if err := eng2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if eng2.ReplayDamaged() {
		t.Fatal("damage flag survived the healing checkpoint")
	}
	if err := eng2.Append([]byte("post-damage")); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}

	eng3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	if eng3.ReplayDamaged() {
		t.Fatal("healed log still damaged")
	}
	tail := collect(t, eng3)
	if len(tail) != 1 || string(tail[0]) != "post-damage" {
		t.Fatalf("post-damage tail = %q", tail)
	}
}

// memState is the in-memory "library" behind a test engine. The background
// checkpointer snapshots it while the test keeps applying, hence the lock.
type memState struct {
	mu   sync.Mutex
	recs [][]byte
}

func (m *memState) apply(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, append([]byte(nil), p...))
	return nil
}

func (m *memState) snapshot(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.recs {
		if _, err := fmt.Fprintf(w, "%s\n", r); err != nil {
			return err
		}
	}
	return nil
}

// TestCheckpointPrunesAndRecovers drives the full checkpoint cycle: append,
// checkpoint (snapshot + manifest + prune), append more, reopen, and verify
// snapshot + tail replay reconstructs everything.
func TestCheckpointPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{SegmentBytes: 128, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := &memState{}
	eng.SetSource(st.snapshot)
	first := payloads(30)
	for _, p := range first {
		if err := eng.Append(p); err != nil {
			t.Fatal(err)
		}
		st.apply(p)
	}
	preSegs, _ := listSegments(dir)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	postSegs, _ := listSegments(dir)
	if len(postSegs) != 1 || len(preSegs) <= 1 {
		t.Fatalf("segments %d -> %d; want prune to exactly the fresh active segment", len(preSegs), len(postSegs))
	}
	if got := eng.Stats(); got.Records != 0 || got.Bytes != 0 || got.Generation != 1 {
		t.Fatalf("post-checkpoint stats = %+v", got)
	}
	tail := [][]byte{[]byte("tail-1"), []byte("tail-2")}
	appendAll(t, eng, tail)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	snap := eng2.SnapshotPath()
	if snap == "" {
		t.Fatal("no snapshot after checkpoint")
	}
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var wantSnap bytes.Buffer
	st2 := &memState{recs: first}
	st2.snapshot(&wantSnap)
	if !bytes.Equal(b, wantSnap.Bytes()) {
		t.Fatalf("snapshot content mismatch:\n%s\nvs\n%s", b, wantSnap.Bytes())
	}
	mustEqual(t, collect(t, eng2), tail)
	if got := eng2.Stats(); got.Generation != 1 {
		t.Fatalf("recovered generation = %d, want 1", got.Generation)
	}
}

// TestAutoCheckpoint verifies the background checkpointer fires once the
// record threshold trips, without any admin call.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{CheckpointRecords: 10, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := &memState{}
	eng.SetSource(st.snapshot)
	for _, p := range payloads(12) {
		if err := eng.Append(p); err != nil {
			t.Fatal(err)
		}
		st.apply(p)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Generation == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auto checkpoint never fired: %+v", eng.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if eng.SnapshotPath() == "" {
		t.Fatal("auto checkpoint left no snapshot")
	}
}

// TestAutoCheckpointOncePerThreshold: a checkpoint rewrites the whole library,
// so the background one runs only for a threshold's worth of log. Concurrent
// appenders keep kicking the checkpointer between the moment it wakes and the
// moment its checkpoint cuts the log; those kicks must not each become a
// second snapshot over the handful of records that followed the cut.
func TestAutoCheckpointOncePerThreshold(t *testing.T) {
	const writers, each, threshold = 8, 150, 100
	var mu sync.Mutex
	var folded []int64 // records each checkpoint folded in
	eng, err := Open(t.TempDir(), Options{CheckpointRecords: threshold, CheckpointBytes: -1,
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "wal: checkpoint generation") {
				mu.Lock()
				folded = append(folded, args[1].(int64))
				mu.Unlock()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetSource((&memState{}).snapshot) // what a snapshot holds is other tests' business
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := eng.Append([]byte(fmt.Sprintf("w%d-%04d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := eng.Close(); err != nil { // waits out a checkpoint in flight
		t.Fatal(err)
	}
	for _, n := range folded {
		if n < threshold {
			t.Fatalf("a background checkpoint ran for %d records at a threshold of %d (all: %v)", n, threshold, folded)
		}
	}
	if len(folded) < 2 {
		t.Fatalf("%d records took %d checkpoints; the fixture lost its teeth", writers*each, len(folded))
	}
}

// TestCheckpointConcurrentAppends checkpoints while appends race in,
// verifying nothing is lost: snapshot + log-tail replay covers every
// appended record. Like the library's registration path, each append and
// its state mutation happen atomically under one lock, and the snapshot
// source takes the same lock — the ordering contract Engine.Checkpoint
// documents.
func TestCheckpointConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{SegmentBytes: 512, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	var st memState
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	eng.SetSource(func(w io.Writer) error {
		<-mu
		defer func() { mu <- struct{}{} }()
		return st.snapshot(w)
	})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			p := []byte(fmt.Sprintf("conc-%04d", i))
			<-mu
			err := eng.Append(p)
			if err == nil {
				st.apply(p)
			}
			mu <- struct{}{}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover: snapshot content ∪ log tail must equal all 200 records.
	eng2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	seen := map[string]bool{}
	if snap := eng2.SnapshotPath(); snap != "" {
		b, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			if len(line) > 0 {
				seen[string(line)] = true
			}
		}
	}
	for _, p := range collect(t, eng2) {
		seen[string(p)] = true
	}
	for i := 0; i < 200; i++ {
		if !seen[fmt.Sprintf("conc-%04d", i)] {
			t.Fatalf("record conc-%04d lost across checkpoint", i)
		}
	}
}

// TestAutoCheckpointAfterRecovery accumulates lag past the threshold with
// no source installed (as a crashed daemon would leave it), reopens, and
// verifies SetSource alone — no further appends — fires the checkpoint.
func TestAutoCheckpointAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{CheckpointRecords: 5, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, eng, payloads(8))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(dir, Options{CheckpointRecords: 5, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	st := &memState{}
	if err := eng2.Replay(st.apply); err != nil {
		t.Fatal(err)
	}
	if got := eng2.Stats(); got.Records != 8 {
		t.Fatalf("recovered lag = %+v, want 8 records", got)
	}
	eng2.SetSource(st.snapshot)
	deadline := time.Now().Add(5 * time.Second)
	for eng2.Stats().Generation == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("post-recovery lag never checkpointed: %+v", eng2.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	eng, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestEmptyAppendRejected(t *testing.T) {
	eng, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
}

func TestCheckpointWithoutSourceFails(t *testing.T) {
	eng, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a source succeeded")
	}
}

// TestCrashBetweenSnapshotAndManifest simulates a crash that left an orphan
// snapshot (written but never committed to MANIFEST): reopening prunes it
// and recovery still replays the full log.
func TestCrashBetweenSnapshotAndManifest(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(5)
	appendAll(t, eng, want)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, snapshotName(7))
	if err := os.WriteFile(orphan, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan snapshot not pruned: %v", err)
	}
	if eng2.SnapshotPath() != "" {
		t.Fatal("uncommitted snapshot became current")
	}
	mustEqual(t, collect(t, eng2), want)
}

// BenchmarkAppendSyncAlwaysSerial is the per-record fsync floor: one
// appender, one flush per record.
func BenchmarkAppendSyncAlwaysSerial(b *testing.B) {
	e, err := Open(b.TempDir(), Options{Logf: func(string, ...any) {}, CheckpointBytes: -1, CheckpointRecords: -1, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSyncAlwaysParallel measures SyncAlways with concurrent
// appenders. Each append writes and fsyncs its own frame under the engine
// lock, so appenders queue and the per-record cost is one fsync whatever the
// writer count; records/fsync reports 1.
func BenchmarkAppendSyncAlwaysParallel(b *testing.B) {
	for _, writers := range []int{8, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			benchmarkAppendParallel(b, writers)
		})
	}
}

func benchmarkAppendParallel(b *testing.B, writers int) {
	e, err := Open(b.TempDir(), Options{Logf: func(string, ...any) {}, CheckpointBytes: -1, CheckpointRecords: -1, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	var next atomic.Int64
	b.ResetTimer()
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			var err error
			for {
				if int(next.Add(1)) > b.N {
					break
				}
				if err = e.Append(payload); err != nil {
					break
				}
			}
			done <- err
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := e.Stats(); st.Syncs > 0 {
		b.ReportMetric(float64(st.Records)/float64(st.Syncs), "records/fsync")
	}
}
