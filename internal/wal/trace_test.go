package wal

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"classminer/internal/trace"
)

// TestAppendCtxSpans drives concurrent traced appenders and asserts that
// every SyncAlways append records exactly one wal.append span with exactly
// one wal.fsync.lead under it: each append fsyncs its own frame, and the
// fsync span keeps the name the job layer budget reads.
func TestAppendCtxSpans(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	tc := trace.New(trace.Config{Slow: 0, Ring: 1024}) // keep every trace
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				var sid [8]byte
				trace.PutUint64(sid[:], trace.RandU64())
				tr, root := tc.StartTrace("append", sid, "")
				ctx := trace.With(context.Background(), root)
				if err := e.AppendCtx(ctx, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
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
	views := tc.Recent()
	if len(views) != writers*perWriter {
		t.Fatalf("kept %d traces, want %d", len(views), writers*perWriter)
	}
	for _, v := range views {
		count := map[string]int{}
		for _, sp := range v.Spans {
			count[sp.Name]++
		}
		if count["wal.append"] != 1 || count["wal.fsync.lead"] != 1 || count["wal.park"] != 0 {
			t.Fatalf("want one wal.append and one wal.fsync.lead, no wal.park; got %+v", v.Spans)
		}
	}
	if st := e.Stats(); st.Syncs != st.Records {
		t.Fatalf("Syncs = %d for %d records, want one fsync per append", st.Syncs, st.Records)
	}
}
