package wal

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"classminer/internal/trace"
)

// TestAppendCtxSpans drives concurrent traced appenders through the group
// commit and asserts every trace records its append, exactly the leaders
// record a wal.fsync.lead, and at least one of each occurred (the
// group-commit invariant: one lead per batch, everyone else parked). A
// follower park requires two appenders to genuinely overlap, which the
// scheduler does not owe any single round — the fsync is slowed (as in
// the group-commit tests) and the traffic repeats until one is observed.
func TestAppendCtxSpans(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A slowed fsync forces real batching even on a fast disk.
	e.mu.Lock()
	e.syncHook = func(f *os.File) error {
		time.Sleep(200 * time.Microsecond)
		return f.Sync()
	}
	e.mu.Unlock()

	tc := trace.New(trace.Config{Slow: 0, Ring: 1024}) // keep every trace
	const writers = 8
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					var sid [8]byte
					trace.PutUint64(sid[:], trace.RandU64())
					tr, root := tc.StartTrace("append", sid, "")
					ctx := trace.With(context.Background(), root)
					if err := e.AppendCtx(ctx, []byte(fmt.Sprintf("r%d-w%d-%d", round, w, i))); err != nil {
						t.Errorf("AppendCtx: %v", err)
					}
					tc.Finish(tr, trace.Meta{Route: "wal-test"})
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		leads, parks := 0, 0
		for _, v := range tc.Recent() {
			var sawAppend bool
			for _, sp := range v.Spans {
				switch sp.Name {
				case "wal.append":
					sawAppend = true
				case "wal.fsync.lead":
					leads++
				case "wal.park":
					parks++
				}
			}
			if !sawAppend {
				t.Fatalf("trace without wal.append span: %+v", v.Spans)
			}
		}
		if leads > 0 && parks > 0 {
			return
		}
	}
	t.Fatal("no round produced both a wal.fsync.lead and a follower wal.park span")
}

// TestWaitCtxUntracedNoop: a bare context must thread through WaitCtx with
// no trace machinery involved (and a zero-batch Commit stays free).
func TestWaitCtxUntracedNoop(t *testing.T) {
	dir := t.TempDir()
	opts := quietOpts()
	opts.Sync = SyncNever
	e, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	c, err := e.Begin([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}
