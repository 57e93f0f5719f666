package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func quietOpts() Options {
	return Options{Logf: func(string, ...any) {}, CheckpointBytes: -1, CheckpointRecords: -1}
}

// TestGroupCommitConcurrentAppenders hammers SyncAlways with many
// concurrent appenders (run under -race in CI): every acknowledged record
// must survive a reopen-and-replay, exactly once. (The name predates the
// engine's one-fsync-per-append shape; concurrent appenders still exist.)
func TestGroupCommitConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	opts := quietOpts()
	opts.SegmentBytes = 8 << 10 // force rotations mid-traffic
	e, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A slowed fsync keeps appenders queued on the engine lock.
	e.mu.Lock()
	e.syncHook = func(f *os.File) error {
		time.Sleep(200 * time.Microsecond)
		return f.Sync()
	}
	e.mu.Unlock()

	const writers = 8
	const perWriter = 40
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				payload := []byte(fmt.Sprintf("writer-%d-record-%04d----------------padding----------------", w, i))
				if err := e.Append(payload); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	st := e.Stats()
	if st.Records != writers*perWriter {
		t.Fatalf("Stats.Records = %d, want %d", st.Records, writers*perWriter)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seen := map[string]int{}
	if err := re.Replay(func(p []byte) error { seen[string(p)]++; return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), writers*perWriter)
	}
	for rec, n := range seen {
		if n != 1 {
			t.Fatalf("record %q replayed %d times", rec, n)
		}
	}
}

// TestGroupCommitFailedFsyncAcksNone is the fault-injection contract: when
// an append's fsync fails, that appender gets an error and its record does
// not survive to be replayed — while records acknowledged before the
// failure, and records appended after it, all do.
func TestGroupCommitFailedFsyncAcksNone(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a durable prefix.
	for i := 0; i < 3; i++ {
		if err := e.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: wedge the fsync shut and launch concurrent appenders; every
	// one of them must be told its record failed.
	var failing atomic.Bool
	failing.Store(true)
	e.mu.Lock()
	e.syncHook = func(f *os.File) error {
		if failing.Load() {
			time.Sleep(100 * time.Microsecond) // let the appenders queue up
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}
	e.mu.Unlock()

	const writers = 6
	var wg sync.WaitGroup
	acked := make([]bool, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acked[w] = e.Append([]byte(fmt.Sprintf("doomed-%d", w))) == nil
		}(w)
	}
	wg.Wait()
	for w, ok := range acked {
		if ok {
			t.Fatalf("writer %d was acked despite its failed fsync", w)
		}
	}

	// Phase 3: the failure was transient, not a wedge — each failed frame
	// was truncated away, so fresh appends work and are durable.
	failing.Store(false)
	if err := e.Append([]byte("post-0")); err != nil {
		t.Fatalf("append after recovered fsync: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var replayed []string
	if err := re.Replay(func(p []byte) error { replayed = append(replayed, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []string{"pre-0", "pre-1", "pre-2", "post-0"}
	if len(replayed) != len(want) {
		t.Fatalf("replayed %v, want %v", replayed, want)
	}
	for i, rec := range want {
		if replayed[i] != rec {
			t.Fatalf("replayed %v, want %v", replayed, want)
		}
	}
}

// TestGroupCommitKillRestart is the ack/replay agreement test across a
// crash: concurrent appenders run against a log whose fsync fails
// intermittently; afterwards the process state is abandoned SIGKILL-style
// and the directory reopened. Every acknowledged record must be replayed
// and no record whose Append returned an error may surface.
func TestGroupCommitKillRestart(t *testing.T) {
	dir := t.TempDir()
	opts := quietOpts()
	opts.SegmentBytes = 4 << 10
	e, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	e.mu.Lock()
	e.syncHook = func(f *os.File) error {
		if n.Add(1)%5 == 0 { // every fifth flush dies
			return errors.New("injected intermittent fsync failure")
		}
		return f.Sync()
	}
	e.mu.Unlock()

	const writers = 8
	const perWriter = 30
	var mu sync.Mutex
	ackedSet := map[string]bool{}
	failedSet := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := fmt.Sprintf("w%d-r%04d", w, i)
				err := e.Append([]byte(rec))
				mu.Lock()
				if err == nil {
					ackedSet[rec] = true
				} else {
					failedSet[rec] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(ackedSet) == 0 || len(failedSet) == 0 {
		t.Fatalf("want a mix of acks and failures, got %d acked / %d failed", len(ackedSet), len(failedSet))
	}
	// SIGKILL-style abandonment: Close releases the flock exactly as
	// process death would; under SyncAlways it writes nothing new (acked
	// records are already durable, failed ones already truncated away).
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	replayed := map[string]bool{}
	if err := re.Replay(func(p []byte) error { replayed[string(p)] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	for rec := range ackedSet {
		if !replayed[rec] {
			t.Fatalf("acknowledged record %q lost", rec)
		}
	}
	for rec := range replayed {
		if failedSet[rec] {
			t.Fatalf("failed record %q surfaced in replay", rec)
		}
		if !ackedSet[rec] {
			t.Fatalf("replay surfaced %q, which was never acknowledged", rec)
		}
	}
}

// TestGroupCommitRotationCommitsOpenBatch: a rotation seals (and fsyncs)
// the active segment and opens the next under concurrent appenders; every
// acknowledged record must replay once, in a chain with no holes. Exercised
// by forcing rotation on nearly every append.
func TestGroupCommitRotationCommitsOpenBatch(t *testing.T) {
	dir := t.TempDir()
	opts := quietOpts()
	opts.SegmentBytes = 1 // every append lands on a fresh segment
	e, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := e.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	count := 0
	if err := re.Replay(func([]byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", count, writers*perWriter)
	}
}
