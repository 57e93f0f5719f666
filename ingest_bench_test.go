package classminer

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// durableBenchLibrary opens a fresh fsync=always durable library for ingest
// benchmarks. Auto-checkpointing is disabled so every iteration measures the
// append path, not a background snapshot.
func durableBenchLibrary(b *testing.B) *Library {
	b.Helper()
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		b.Fatal(err)
	}
	opts := quietWAL()
	opts.Sync = SyncAlways
	opts.SegmentBytes = 64 << 20
	lib, err := Recover(b.TempDir(), a, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lib.Close() })
	return lib
}

// benchResults pre-mines b.N tiny results outside the timed loop so the
// benchmark measures the durable registration path (encode, journal, group
// commit, install), not test-fixture decoding.
func benchResults(b *testing.B, prefix string) []*Result {
	b.Helper()
	out := make([]*Result, b.N)
	for i := range out {
		out[i] = tinyResult(b, fmt.Sprintf("%s-%08d", prefix, i), int64(i), 2)
	}
	return out
}

// BenchmarkDurableIngestSerial is the per-record fsync baseline: one writer,
// so every registration pays a full fsync before it is acknowledged. This is
// what the whole ingest pool used to pay per record regardless of
// concurrency, because the append-and-fsync ran inside the library's write
// lock.
func BenchmarkDurableIngestSerial(b *testing.B) {
	lib := durableBenchLibrary(b)
	results := benchResults(b, "serial")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lib.AddResult(results[i], "medicine"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableIngestParallel measures sustained durable ingest
// throughput with 8 concurrent writers under fsync=always — the ISSUE 5
// target workload. With WAL group commit the writers coalesce onto shared
// fsyncs, so records/sec scale with the batching ratio instead of paying
// one disk flush each.
func BenchmarkDurableIngestParallel(b *testing.B) {
	lib := durableBenchLibrary(b)
	results := benchResults(b, "par")
	const writers = 8
	var next atomic.Int64
	b.ResetTimer()
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			var err error
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					break
				}
				if err = lib.AddResult(results[i], "medicine"); err != nil {
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
	if ws, ok := lib.WALStats(); ok && ws.Syncs > 0 {
		b.ReportMetric(float64(ws.Records)/float64(ws.Syncs), "records/fsync")
	}
}

// BenchmarkDeleteVideo deletes one 25-shot video per iteration from a
// library of 10 000 shots whose index is current — the exclusive section of
// a delete. Each victim is replaced and, every 100 deletes, the index refit
// (which also compacts the dead rows away) outside the timer, so every
// iteration meets the same library.
func BenchmarkDeleteVideo(b *testing.B) {
	b.Run("shots=10k", func(b *testing.B) {
		a, err := NewAnalyzer(Options{SkipEvents: true})
		if err != nil {
			b.Fatal(err)
		}
		const videos = 400
		lib := churnLibrary(b, a, videos)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := lib.DeleteVideoAsCtx(context.Background(), admin, fmt.Sprintf("vid-%05d", i)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := lib.AddResult(tinyResult(b, fmt.Sprintf("vid-%05d", videos+i), int64(videos+i), 25), "medicine"); err != nil {
				b.Fatal(err)
			}
			if i%100 == 99 {
				if err := lib.BuildIndex(); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
	})
}

// BenchmarkRecoverChurn recovers the directory ingest-churn leaves behind:
// 400 base videos and 1 000 register/delete pairs on the log, no checkpoint.
func BenchmarkRecoverChurn(b *testing.B) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	_, logBytes := churnDir(b, a, dir, 400, 1000, true, false)
	b.SetBytes(logBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lib, err := Recover(dir, a, quietWAL())
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := lib.Stats().Videos; got != 400 {
			b.Fatalf("recovered %d videos, want 400", got)
		}
		lib.Close()
		b.StartTimer()
	}
}

// BenchmarkCheckpointChurned times the one mechanism that reclaims log, on
// the directory it exists for: the live set in a snapshot and 1 600
// register/delete pairs — nearly all of them dead — on the log behind it, as
// ingest-churn leaves a directory between checkpoints. One checkpoint writes
// the live set out again (snapshot-B) and prunes the whole log
// (log-B-reclaimed). 528 videos of 25 shots is the benchmark's library; 4 000
// is 100 000 shots, where a checkpoint's cost — it is O(library), not
// O(dead log) — is what deleting sealed-segment compaction gave up.
func BenchmarkCheckpointChurned(b *testing.B) {
	for _, videos := range []int{528, 4000} {
		b.Run(fmt.Sprintf("videos=%d", videos), func(b *testing.B) {
			a, err := NewAnalyzer(Options{SkipEvents: true})
			if err != nil {
				b.Fatal(err)
			}
			src := b.TempDir()
			_, logBytes := churnDir(b, a, src, videos, 1600, true, true)
			var snapBytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), "data")
				copyDataDir(b, src, dir)
				lib, err := Recover(dir, a, quietWAL())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := lib.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if left := dirBytes(b, dir, "wal-*.log"); left != 0 {
					b.Fatalf("the checkpoint left %d bytes of log", left)
				}
				snapBytes = dirBytes(b, dir, "snap-*.ckpt")
				if err := lib.Close(); err != nil {
					b.Fatal(err)
				}
				os.RemoveAll(dir)
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
			b.ReportMetric(float64(snapBytes), "snapshot-B")
			b.ReportMetric(float64(logBytes), "log-B-reclaimed")
		})
	}
}
