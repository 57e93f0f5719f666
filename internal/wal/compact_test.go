package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// compactOpts keeps auto-checkpointing and auto-compaction out of the way
// and rotates segments aggressively so a handful of records spans several.
func compactOpts() Options {
	return Options{
		SegmentBytes:      512,
		Sync:              SyncNever,
		CheckpointBytes:   -1,
		CheckpointRecords: -1,
		CompactBytes:      -1,
	}
}

// mustRecord builds one typed record frame.
func mustRecord(t testing.TB, kind, key, body string) []byte {
	t.Helper()
	var payload []byte
	if kind != RecordTombstone {
		payload = []byte(fmt.Sprintf(`{"key":%q,"body":%q}`, key, body))
	}
	frame, err := EncodeRecord(kind, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// registerBody pads register payloads so segments rotate quickly.
func registerBody(i int) string {
	return fmt.Sprintf("%04d-%s", i, strings.Repeat("x", 160))
}

// applyRecords folds a replayed record stream into final per-key state
// using the library's replay semantics: register is skip-if-present,
// replace is upsert, tombstone is delete-if-present.
func applyRecords(t testing.TB, frames [][]byte) map[string]string {
	t.Helper()
	state := map[string]string{}
	for i, frame := range frames {
		rec, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		switch rec.Type {
		case RecordRegister:
			if _, ok := state[rec.Key]; !ok {
				state[rec.Key] = string(rec.Payload)
			}
		case RecordReplace:
			state[rec.Key] = string(rec.Payload)
		case RecordTombstone:
			delete(state, rec.Key)
		}
	}
	return state
}

// replayState reopens dir and returns the final applied state plus the raw
// record count.
func replayState(t testing.TB, dir string) (map[string]string, int) {
	t.Helper()
	eng, err := Open(dir, compactOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	frames := collect(t, eng)
	return applyRecords(t, frames), len(frames)
}

func sealedBytes(t testing.TB, dir string) int64 {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, idx := range segs[:len(segs)-1] { // last segment is active
		fi, err := os.Stat(filepath.Join(dir, segmentName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// lifecycleLog appends a register/delete/replace workload that leaves dead
// records across several sealed segments: registers k0..k9, deletes the
// even half, replaces k1 and k3, then re-registers k2 (delete followed by
// fresh register — the sequence whose tombstone must survive compaction).
func lifecycleLog(t testing.TB, eng *Engine) {
	t.Helper()
	for i := 0; i < 10; i++ {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordRegister, fmt.Sprintf("k%d", i), registerBody(i))})
	}
	for i := 0; i < 10; i += 2 {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordTombstone, fmt.Sprintf("k%d", i), "")})
	}
	appendAll(t, eng, [][]byte{
		mustRecord(t, RecordReplace, "k1", registerBody(101)),
		mustRecord(t, RecordReplace, "k3", registerBody(103)),
		mustRecord(t, RecordRegister, "k2", registerBody(202)),
	})
	// Pad with fresh keys so the mutation records above are sealed too.
	for i := 20; i < 26; i++ {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordRegister, fmt.Sprintf("k%d", i), registerBody(i))})
	}
}

// TestCompactDropsSuperseded: compaction must shrink the sealed log, drop
// only records a later tombstone or replace superseded, and leave the
// replayed state identical.
func TestCompactDropsSuperseded(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, compactOpts())
	if err != nil {
		t.Fatal(err)
	}
	lifecycleLog(t, eng)

	before := collect(t, eng)
	wantState := applyRecords(t, before)
	beforeBytes := sealedBytes(t, dir)
	beforeStats := eng.Stats()

	res, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsDropped == 0 || res.SegmentsCompacted == 0 {
		t.Fatalf("compaction reclaimed nothing: %+v", res)
	}
	afterBytes := sealedBytes(t, dir)
	if afterBytes >= beforeBytes {
		t.Fatalf("sealed bytes %d -> %d, want a shrink", beforeBytes, afterBytes)
	}
	if got := eng.Stats(); got.Records != beforeStats.Records-res.RecordsDropped ||
		got.Bytes != beforeStats.Bytes-res.BytesFreed {
		t.Fatalf("stats not adjusted: before %+v, after %+v, result %+v", beforeStats, got, res)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	gotState, records := replayState(t, dir)
	if len(before)-int(res.RecordsDropped) != records {
		t.Fatalf("replayed %d records, want %d", records, len(before)-int(res.RecordsDropped))
	}
	if fmt.Sprint(gotState) != fmt.Sprint(wantState) {
		t.Fatalf("state diverged after compaction:\n got %v\nwant %v", gotState, wantState)
	}
	// The re-registered key's tombstone must have survived: without it the
	// snapshot-free replay would still be correct, but a register before it
	// would resurrect. Check semantics directly: k2 maps to the *new* body.
	if !strings.Contains(gotState["k2"], "0202") && !strings.Contains(gotState["k2"], "202") {
		t.Fatalf("k2 state lost its re-registration: %q", gotState["k2"])
	}
}

// TestCompactIdempotent: a second pass over an already-compacted log finds
// nothing (no dead records remain in sealed segments).
func TestCompactIdempotent(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, compactOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	lifecycleLog(t, eng)
	if _, err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsDropped != 0 || res.SegmentsCompacted != 0 {
		t.Fatalf("second compaction reclaimed %+v, want nothing", res)
	}
}

// TestCompactAdvancesManifestPastEmptyPrefix: when the leading segments
// empty completely, the manifest's FirstSegment advances and the files are
// removed — committed through the same atomically-replaced MANIFEST a
// checkpoint uses, so a crash anywhere leaves a consistent chain.
func TestCompactAdvancesManifestPastEmptyPrefix(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, compactOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Fill the first segments with registrations, then kill them all.
	for i := 0; i < 6; i++ {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordRegister, fmt.Sprintf("p%d", i), registerBody(i))})
	}
	for i := 0; i < 6; i++ {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordTombstone, fmt.Sprintf("p%d", i), "")})
	}
	// Seal the tombstone segments behind fresh traffic.
	for i := 10; i < 16; i++ {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordRegister, fmt.Sprintf("q%d", i), registerBody(i))})
	}
	segsBefore, _ := listSegments(dir)
	res, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsRemoved == 0 {
		t.Fatalf("no leading segments removed: %+v (segments before: %v)", res, segsBefore)
	}
	man, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.FirstSegment == 1 {
		t.Fatal("manifest FirstSegment did not advance")
	}
	segsAfter, _ := listSegments(dir)
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("segment count %d -> %d, want fewer", len(segsBefore), len(segsAfter))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	state, _ := replayState(t, dir)
	for i := 0; i < 6; i++ {
		if _, ok := state[fmt.Sprintf("p%d", i)]; ok {
			t.Fatalf("deleted key p%d resurrected", i)
		}
	}
	for i := 10; i < 16; i++ {
		if _, ok := state[fmt.Sprintf("q%d", i)]; !ok {
			t.Fatalf("live key q%d lost", i)
		}
	}
}

// TestCompactCrashStages is the fault-injection half of the crash-safety
// story: abort Compact between each commit stage (after a segment rewrite,
// before the manifest swap, after the manifest swap but before the old
// segments are removed) the way SIGKILL would, then recover and verify the
// replayed state matches the never-crashed reference at every stage.
func TestCompactCrashStages(t *testing.T) {
	// Reference: the same workload, never crashed, never compacted.
	refDir := t.TempDir()
	refEng, err := Open(refDir, compactOpts())
	if err != nil {
		t.Fatal(err)
	}
	lifecycleLogPrefixDead(t, refEng)
	wantState := applyRecords(t, collect(t, refEng))
	refEng.Close()

	for _, stage := range []string{"rewrite", "pre-manifest", "manifest"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := Open(dir, compactOpts())
			if err != nil {
				t.Fatal(err)
			}
			lifecycleLogPrefixDead(t, eng)
			boom := fmt.Errorf("injected crash at %s", stage)
			eng.mu.Lock()
			eng.compactHook = func(s string, _ uint64) error {
				if s == stage {
					return boom
				}
				return nil
			}
			eng.mu.Unlock()
			if _, err := eng.Compact(); err != boom {
				t.Fatalf("Compact = %v, want injected crash", err)
			}
			// SIGKILL-style: drop the engine without further writes (Close
			// only fsyncs, which a crash would forfeit anyway under
			// SyncNever nothing is pending).
			eng.Close()

			gotState, _ := replayState(t, dir)
			if fmt.Sprint(gotState) != fmt.Sprint(wantState) {
				t.Fatalf("state diverged after crash at %s:\n got %v\nwant %v", stage, gotState, wantState)
			}
			// A second compaction over the crashed dir must finish the job.
			eng2, err := Open(dir, compactOpts())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng2.Compact(); err != nil {
				t.Fatalf("resumed compaction: %v", err)
			}
			eng2.Close()
			gotState, _ = replayState(t, dir)
			if fmt.Sprint(gotState) != fmt.Sprint(wantState) {
				t.Fatalf("state diverged after resumed compaction at %s:\n got %v\nwant %v", stage, gotState, wantState)
			}
		})
	}
}

// lifecycleLogPrefixDead builds a workload whose leading segments die
// completely (so the manifest-advance stages of Compact are reached) plus
// partially-dead later segments.
func lifecycleLogPrefixDead(t testing.TB, eng *Engine) {
	t.Helper()
	for i := 0; i < 4; i++ {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordRegister, fmt.Sprintf("p%d", i), registerBody(i))})
	}
	for i := 0; i < 4; i++ {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordTombstone, fmt.Sprintf("p%d", i), "")})
	}
	lifecycleLog(t, eng)
}

// TestCompactKeepsUnclassifiableRecords: a frame compaction cannot decode is
// never evidence and never dropped, even when keys die around it.
func TestCompactKeepsUnclassifiableRecords(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, compactOpts())
	if err != nil {
		t.Fatal(err)
	}
	doomed := mustRecord(t, RecordRegister, "doomed-1", registerBody(0))
	opaque := []byte(`{"mystery":"frame"}`) // no envelope: undecodable
	appendAll(t, eng, [][]byte{doomed, opaque})
	appendAll(t, eng, [][]byte{mustRecord(t, RecordRegister, "other", registerBody(1))})
	appendAll(t, eng, [][]byte{mustRecord(t, RecordTombstone, "doomed-1", "")})
	for i := 0; i < 4; i++ { // seal everything above
		appendAll(t, eng, [][]byte{mustRecord(t, RecordRegister, fmt.Sprintf("pad%d", i), registerBody(i))})
	}
	res, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsDropped != 1 {
		t.Fatalf("dropped %d records, want exactly the tombstoned registration", res.RecordsDropped)
	}
	eng.Close()
	eng2, err := Open(dir, compactOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	frames := collect(t, eng2)
	foundOpaque := false
	for _, f := range frames {
		if string(f) == string(opaque) {
			foundOpaque = true
		}
		if rec, err := DecodeRecord(f); err == nil && rec.Key == "doomed-1" && rec.Type != RecordTombstone {
			t.Fatalf("tombstoned registration survived: %q", f)
		}
	}
	if !foundOpaque {
		t.Fatal("unclassifiable record was dropped")
	}
}

// BenchmarkCompact measures one compaction pass over a log shaped like the
// acceptance workload: 1000 ~1 KiB registrations of which half are later
// deleted or replaced, across 64 KiB segments. Setup builds the dirty data
// directory once; each iteration copies it fresh and compacts the copy.
func BenchmarkCompact(b *testing.B) {
	src := b.TempDir()
	opts := compactOpts()
	opts.SegmentBytes = 64 << 10
	eng, err := Open(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	body := strings.Repeat("x", 1024)
	for i := 0; i < 1000; i++ {
		appendAll(b, eng, [][]byte{mustRecord(b, RecordRegister, fmt.Sprintf("v%04d", i), body)})
	}
	for i := 0; i < 500; i++ {
		if i%2 == 0 {
			appendAll(b, eng, [][]byte{mustRecord(b, RecordTombstone, fmt.Sprintf("v%04d", i), "")})
		} else {
			appendAll(b, eng, [][]byte{mustRecord(b, RecordReplace, fmt.Sprintf("v%04d", i), body[:512])})
		}
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "data")
		if err := copyDir(src, dir); err != nil {
			b.Fatal(err)
		}
		e, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := e.Compact()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if res.RecordsDropped != 500 {
			b.Fatalf("dropped %d records, want 500", res.RecordsDropped)
		}
		e.Close()
		b.StartTimer()
	}
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestAutoCompactTrigger: once NoteDead crosses CompactBytes and a sealed
// segment exists, the background compactor runs without an explicit call.
func TestAutoCompactTrigger(t *testing.T) {
	opts := compactOpts()
	opts.CompactBytes = 256
	dir := t.TempDir()
	eng, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 6; i++ {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordRegister, fmt.Sprintf("k%d", i), registerBody(i))})
	}
	for i := 0; i < 6; i++ {
		appendAll(t, eng, [][]byte{mustRecord(t, RecordTombstone, fmt.Sprintf("k%d", i), "")})
	}
	before := sealedBytes(t, dir)
	// The library-side bookkeeping would report each superseded record's
	// footprint; 6 fat registrations comfortably clear the threshold.
	eng.NoteDead(6, 6*200)
	// The compactor rewrites the segment first and settles the dead-bytes
	// estimate after, so wait for both rather than sampling between them.
	deadline := time.Now().Add(5 * time.Second)
	for sealedBytes(t, dir) >= before || eng.Stats().DeadBytes >= 6*200 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never settled (sealed bytes %d, were %d; stats %+v)",
				sealedBytes(t, dir), before, eng.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
