package shard

// Sharded counterparts of the root package's durable-ingest and recovery
// benchmarks, parameterized by shard count to compare N=1 and N=4 directly.
// Every shard journals to the one log, so the writers of all shards share
// its group commits (records/fsync should not depend on N), and recovery
// reads the log once while the shards decode their records side by side.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"classminer"
)

func durableBenchRouter(b *testing.B, n int) *Library {
	b.Helper()
	opts := quietWAL()
	opts.Sync = classminer.SyncAlways
	opts.SegmentBytes = 64 << 20
	l, err := Recover(b.TempDir(), n, testAnalyzer(b), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	return l
}

func benchResults(b *testing.B, prefix string, count int) []*classminer.Result {
	b.Helper()
	out := make([]*classminer.Result, count)
	for i := range out {
		out[i] = tinyResult(b, fmt.Sprintf("%s-%08d", prefix, i), int64(i), 2)
	}
	return out
}

// BenchmarkShardedDurableIngestParallel: 8 writers registering pre-mined
// results through the router with an fsync-always WAL. records/fsync shows
// group commit batching across shards.
func BenchmarkShardedDurableIngestParallel(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			l := durableBenchRouter(b, n)
			results := benchResults(b, "bench", b.N)
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						if err := l.AddResult(results[i], "medicine"); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if ws, ok := l.WALStats(); ok && ws.Syncs > 0 {
				b.ReportMetric(float64(ws.Records)/float64(ws.Syncs), "records/fsync")
			}
		})
	}
}

// BenchmarkShardedRecover10k boots a 10k-record sharded data dir from
// cold, the recovery-time half of the N=1 vs N=4 comparison.
func BenchmarkShardedRecover10k(b *testing.B) {
	const records = 10_000
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			opts := quietWAL()
			opts.Sync = classminer.SyncNever
			opts.SegmentBytes = 64 << 20
			dir := b.TempDir()
			l, err := Recover(dir, n, testAnalyzer(b), opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range benchResults(b, "rec", records) {
				if err := l.AddResult(res, "medicine"); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rl, err := Recover(dir, n, testAnalyzer(b), opts)
				if err != nil {
					b.Fatal(err)
				}
				if v := rl.Stats().Videos; v != records {
					b.Fatalf("recovered %d videos, want %d", v, records)
				}
				if err := rl.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
