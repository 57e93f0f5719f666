package server

// The server against the shard router: the Library interface makes the
// serving stack indifferent to the shard count, and /v1/stats must expose
// the per-shard breakdown of the library counters beside one WAL block for
// the one log behind them — the same engine the wal_* series on /metrics
// describe — and no breakdown at all when there is one shard.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"classminer"
	"classminer/internal/metrics"
	"classminer/internal/shard"
	"classminer/internal/store"
)

var _ Library = (*shard.Library)(nil)

// shardSaved fabricates a minimal mined result with deterministic features
// (same shape as the recovery fixtures in the root package).
func shardSaved(name string, seed int64, shots int) *store.SavedResult {
	rng := rand.New(rand.NewSource(seed))
	sr := &store.SavedResult{
		Version:     store.FormatVersion,
		VideoName:   name,
		FPS:         25,
		TotalFrames: shots * 50,
	}
	feat := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	group := store.SavedGroup{Index: 0}
	for i := 0; i < shots; i++ {
		sr.Shots = append(sr.Shots, store.SavedShot{
			Index: i, Start: i * 50, End: (i+1)*50 - 1, RepFrame: i * 50,
			Color: feat(8), Texture: feat(4),
		})
		group.Shots = append(group.Shots, i)
	}
	group.RepShots = []int{0}
	sr.Groups = []store.SavedGroup{group}
	sr.Scenes = []store.SavedScene{{Index: 0, Groups: []int{0}, RepGroup: 0}}
	return sr
}

func TestStatsEndpointShardedWAL(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	lib, err := shard.Recover(t.TempDir(), 3, a,
		classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lib.Close() })
	// Nine videos folded into a checkpoint, two more on the log tail: the
	// generation and the lag both read something other than zero.
	const videos, tail = 11, 2
	for i := 0; i < videos; i++ {
		res, err := store.DecodeResult(shardSaved(fmt.Sprintf("scan-%02d", i), int64(i), 2+i%2))
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.AddResult(res, "medicine"); err != nil {
			t.Fatal(err)
		}
		if i == videos-tail-1 {
			if err := lib.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	s := New(lib, Options{Tokens: testTokens(), Metrics: reg})
	t.Cleanup(s.Close)

	// A search through the full middleware stack works against the router.
	var sr struct {
		Hits []struct {
			Video string `json:"video"`
		} `json:"hits"`
	}
	req := map[string]any{"video": "scan-00", "shot": 0, "k": 5}
	if code := do(t, s, http.MethodPost, "/v1/search", "admin-tok", req, &sr); code != http.StatusOK {
		t.Fatalf("search = %d", code)
	}
	if len(sr.Hits) == 0 {
		t.Fatal("sharded search returned no hits")
	}

	var resp struct {
		Library classminer.LibraryStats `json:"library"`
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &resp); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if resp.Library.Videos != videos {
		t.Fatalf("stats videos = %d, want %d", resp.Library.Videos, videos)
	}
	if len(resp.Library.Shards) != 3 {
		t.Fatalf("stats carries %d shard blocks, want 3", len(resp.Library.Shards))
	}
	var shardVideos int
	for i, ss := range resp.Library.Shards {
		if ss.Shard != i {
			t.Fatalf("shard block %d labeled %d", i, ss.Shard)
		}
		if ss.WAL != nil {
			t.Fatalf("shard %d block carries WAL stats %+v; the one log belongs on the aggregate", i, ss.WAL)
		}
		shardVideos += ss.Videos
	}
	if shardVideos != videos {
		t.Fatalf("shard blocks sum to %d videos, want %d", shardVideos, videos)
	}
	ws := resp.Library.WAL
	if ws == nil {
		t.Fatal("WAL block missing")
	}
	if ws.Generation != 1 || ws.Records != tail {
		t.Fatalf("WAL block = %+v, want generation 1 and %d records of lag", ws, tail)
	}
	// /metrics describes the same engine, generation included.
	body := scrape(t, s, "admin-tok")
	for series, want := range map[string]float64{
		"wal_checkpoints_total": float64(ws.Generation),
		"wal_lag_records":       float64(ws.Records),
		"wal_lag_bytes":         float64(ws.Bytes),
		"wal_segments":          float64(ws.Segments),
		"wal_syncs_total":       float64(ws.Syncs),
	} {
		if got := metricValue(t, body, series); got != want {
			t.Fatalf("/metrics %s = %v, /v1/stats library.wal says %v", series, got, want)
		}
	}
}

// TestStatsEndpointOneShard: the daemon's default library is the router over
// one shard, and there the aggregate is the shard — /v1/stats carries the
// same library block a plain library would, with no per-shard breakdown.
func TestStatsEndpointOneShard(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := shard.Recover(t.TempDir(), 0, a,
		classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lib.Close() })
	const videos = 4
	for i := 0; i < videos; i++ {
		res, err := store.DecodeResult(shardSaved(fmt.Sprintf("scan-%02d", i), int64(i), 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.AddResult(res, "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	s := New(lib, Options{Tokens: testTokens()})
	t.Cleanup(s.Close)

	var resp struct {
		Library json.RawMessage `json:"library"`
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &resp); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var keys map[string]json.RawMessage
	var got classminer.LibraryStats
	if err := json.Unmarshal(resp.Library, &keys); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resp.Library, &got); err != nil {
		t.Fatal(err)
	}
	if raw, ok := keys["shards"]; ok {
		t.Fatalf("one-shard stats carry a per-shard block: %s", raw)
	}
	want := lib.ShardAt(0).Stats()
	if got.Videos != videos || got.Videos != want.Videos || got.Shots != want.Shots ||
		got.IndexedShots != want.IndexedShots || got.WAL == nil || got.WAL.Records != want.WAL.Records {
		t.Fatalf("one-shard aggregate = %+v (wal %+v), the shard itself reports %+v (wal %+v)",
			got, got.WAL, want, want.WAL)
	}
}
