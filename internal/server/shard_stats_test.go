package server

// The server against the shard router: the Library interface makes the
// serving stack indifferent to the shard count, and /v1/stats must expose
// the per-shard breakdown with a correctly aggregated WAL block (summed
// counters) rather than any single shard's view — and no breakdown at all
// when there is one shard.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"classminer"
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
	lib, err := shard.Recover(t.TempDir(), 3, a,
		classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lib.Close() })
	const videos = 9
	for i := 0; i < videos; i++ {
		res, err := store.DecodeResult(shardSaved(fmt.Sprintf("scan-%02d", i), int64(i), 2+i%2))
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
	if resp.Library.WAL == nil {
		t.Fatal("aggregate WAL block missing")
	}
	var sumRecords, sumSyncs int64
	var shardVideos int
	for i, ss := range resp.Library.Shards {
		if ss.Shard != i {
			t.Fatalf("shard block %d labeled %d", i, ss.Shard)
		}
		if ss.WAL == nil {
			t.Fatalf("shard %d block has no WAL stats", i)
		}
		sumRecords += ss.WAL.Records
		sumSyncs += ss.WAL.Syncs
		shardVideos += ss.Videos
	}
	if shardVideos != videos {
		t.Fatalf("shard blocks sum to %d videos, want %d", shardVideos, videos)
	}
	if resp.Library.WAL.Records != sumRecords || sumRecords != videos {
		t.Fatalf("aggregate WAL records = %d, shard sum = %d, want %d",
			resp.Library.WAL.Records, sumRecords, videos)
	}
	if resp.Library.WAL.Syncs != sumSyncs {
		t.Fatalf("aggregate WAL syncs = %d, shard sum = %d", resp.Library.WAL.Syncs, sumSyncs)
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
