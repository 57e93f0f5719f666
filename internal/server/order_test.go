package server

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"classminer"
	"classminer/internal/index"
	"classminer/internal/store"
)

// TestSearchTiesAnswerInOracleOrder: shots that duplicate each other exactly
// under different video names tie exactly, and /v1/search and
// /v1/search/batch list every tie in the (distance, video name, shot index)
// order — the order index.FlatSearch, the benchmark's oracle, gives over the
// entries in name order. The videos are registered against the name order,
// so the entry ids an index breaks ties by run the other way: only the
// library's sort of the hits it returns puts them in the oracle's order.
func TestSearchTiesAnswerInOracleOrder(t *testing.T) {
	const shots = 3
	names := []string{"twin-a", "twin-b", "twin-c", "twin-d"}
	lib := classminer.NewLibrary(nil)
	for i := len(names) - 1; i >= 0; i-- {
		res, err := store.DecodeResult(tinySavedResult(names[i], 42, shots))
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.AddResultCtx(context.Background(), res, "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	var oracle []*index.Entry
	for _, name := range names {
		res, err := store.DecodeResult(tinySavedResult(name, 42, shots))
		if err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, res.IndexEntries("medicine")...)
	}
	// No cache: every reply, single or batch, is the library's own answer.
	s := New(lib, Options{Tokens: testTokens(), CacheSize: -1})
	defer s.Close()

	rng := rand.New(rand.NewSource(7))
	var items []map[string]any
	var queries [][]float64
	for q := 0; q < 3; q++ {
		query := make([]float64, 12)
		for i := range query {
			query[i] = rng.Float64()
		}
		items = append(items, map[string]any{"query": query})
		queries = append(queries, query)
	}
	items = append(items, map[string]any{"video": "twin-c", "shot": 1})
	queries = append(queries, oracle[2*shots+1].Shot.Feature())

	key := func(video string, shot int, dist float64) string { return fmt.Sprintf("%s/%d@%v", video, shot, dist) }
	for _, k := range []int{len(names), len(names) * shots} {
		var want [][]string
		for i, q := range queries {
			hits, _ := index.FlatSearch(oracle, q, k)
			if hits[0].Dist != hits[len(names)-1].Dist {
				t.Fatalf("k=%d item %d: the fixture's nearest shots do not tie: %+v", k, i, hits)
			}
			var keys []string
			for _, h := range hits {
				keys = append(keys, key(h.Entry.VideoName, h.Entry.Shot.Index, h.Dist))
			}
			want = append(want, keys)
		}
		replyKeys := func(r searchResponse) []string {
			var keys []string
			for _, h := range r.Hits {
				keys = append(keys, key(h.Video, h.Shot, h.Dist))
			}
			return keys
		}
		for i, item := range items {
			single := maps.Clone(item)
			single["k"] = k
			var resp searchResponse
			if code := do(t, s, http.MethodPost, "/v1/search", "admin-tok", single, &resp); code != http.StatusOK {
				t.Fatalf("k=%d item %d: search = %d", k, i, code)
			}
			if got := replyKeys(resp); !slices.Equal(got, want[i]) {
				t.Fatalf("k=%d item %d: /v1/search hits\n%v\nwant the oracle's\n%v", k, i, got, want[i])
			}
		}
		var batch batchSearchResponse
		if code := do(t, s, http.MethodPost, "/v1/search/batch", "admin-tok", map[string]any{"k": k, "items": items}, &batch); code != http.StatusOK {
			t.Fatalf("k=%d: batch = %d", k, code)
		}
		for i, r := range batch.Results {
			if got := replyKeys(r); !slices.Equal(got, want[i]) {
				t.Fatalf("k=%d item %d: /v1/search/batch hits\n%v\nwant the oracle's\n%v", k, i, got, want[i])
			}
		}
	}
}
