package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"classminer"
	"classminer/internal/metrics"
	"classminer/internal/shard"
	"classminer/internal/store"
)

// statsAt boots a durable library through shard.Recover at shard count n
// (ignored: -shards boots the one library whatever it says), registers six
// videos of two shots, four folded into a checkpoint and two on the log tail
// so the generation and the lag both read something other than zero, fits
// the index, and serves it. It returns the server and its /v1/stats library
// block, raw and decoded; the block must carry no per-shard breakdown.
func statsAt(t *testing.T, n int) (*Server, json.RawMessage, classminer.LibraryStats) {
	t.Helper()
	reg := metrics.NewRegistry()
	lib, err := shard.Recover(t.TempDir(), n, nil,
		classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lib.Close() })
	for i := 0; i < statsVideos; i++ {
		res, err := store.DecodeResult(tinySavedResult(fmt.Sprintf("scan-%02d", i), int64(i), 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.AddResultCtx(context.Background(), res, "medicine"); err != nil {
			t.Fatal(err)
		}
		if i == statsVideos-statsTail-1 {
			if err := lib.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lib.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := New(lib, Options{Tokens: testTokens(), Metrics: reg})
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
		t.Fatalf("-shards %d: stats carry a per-shard block: %s", n, raw)
	}
	if got.Videos != statsVideos || got.IndexedShots != 2*statsVideos {
		t.Fatalf("-shards %d: library block %+v, want %d videos of 2 shots indexed", n, got, statsVideos)
	}
	return s, resp.Library, got
}

const statsVideos, statsTail = 6, 2

// TestStatsEndpointShardedWAL: a library booted at -shards 3 has one log,
// and /v1/stats describes it in one library.wal block — the same engine the
// wal_* series on /metrics describe, generation included — and searches
// through the full middleware stack like any other.
func TestStatsEndpointShardedWAL(t *testing.T) {
	s, _, got := statsAt(t, 3)
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
		t.Fatal("search returned no hits")
	}
	ws := got.WAL
	if ws == nil || ws.Generation != 1 || ws.Records != statsTail {
		t.Fatalf("WAL block = %+v, want generation 1 and %d records of lag", ws, statsTail)
	}
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

// TestStatsEndpointOneShard: -shards is ignored, so a library booted at
// -shards 4 is the one booted with no flag — /v1/stats carries the same
// library block, byte for byte, for both, with no per-shard breakdown.
func TestStatsEndpointOneShard(t *testing.T) {
	_, plain, _ := statsAt(t, 0)
	_, four, _ := statsAt(t, 4)
	if !bytes.Equal(plain, four) {
		t.Fatalf("-shards 4 stats differ from the default's:\n%s\n%s", four, plain)
	}
}
