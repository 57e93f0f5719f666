package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"classminer"
	"classminer/internal/store"
)

// widen gives every shot of sr colour+texture rows of the given widths.
func widen(sr *store.SavedResult, color, texture int) *store.SavedResult {
	for i := range sr.Shots {
		sh := &sr.Shots[i]
		sh.Color = make([]float64, color)
		sh.Texture = make([]float64, texture)
		for j := range sh.Color {
			sh.Color[j] = float64((i+1)*(j+3)%17) / 17
		}
		for j := range sh.Texture {
			sh.Texture[j] = float64((i+2)*(j+5)%13) / 13
		}
	}
	return sr
}

// TestSearchFollowsLibraryDims: the dimensionality a query must have is the
// library's, which an emptied library sets again. A search at 266 dims, the
// only video deleted and a 9-dim one registered: a video+shot search must
// now be answered at 9 dims, and a raw query at the old width refused with
// 400 naming the new one.
func TestSearchFollowsLibraryDims(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(classminer.NewLibrary(a), Options{Tokens: testTokens()})
	t.Cleanup(s.Close)
	search := func(body map[string]any) (int, string) {
		w := doRaw(t, s, http.MethodPost, "/v1/search", "admin-tok", body)
		return w.Code, w.Body.String()
	}
	mustIngestSaved(t, s, widen(tinySavedResult("wide", 1, 4), 256, 10))
	if code, body := search(map[string]any{"video": "wide", "shot": 1, "k": 3}); code != http.StatusOK {
		t.Fatalf("266-dim search = %d %s", code, body)
	}
	if code := do(t, s, http.MethodDelete, "/v1/videos/wide", "admin-tok", nil, nil); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	mustIngestSaved(t, s, widen(tinySavedResult("narrow", 2, 4), 6, 3))
	if code, body := search(map[string]any{"video": "narrow", "shot": 1, "k": 3}); code != http.StatusOK {
		t.Fatalf("9-dim video+shot search = %d %s, want 200", code, body)
	}
	code, body := search(map[string]any{"query": make([]float64, 266), "k": 3})
	if code != http.StatusBadRequest || !strings.Contains(body, "query has 266 dims, want 9") {
		t.Fatalf("266-dim query against a 9-dim library = %d %s, want 400 naming 9", code, body)
	}
	w := doRaw(t, s, http.MethodPost, "/v1/search/batch", "admin-tok",
		map[string]any{"items": []map[string]any{{"video": "narrow", "shot": 0}, {"query": []float64{1, 2}}}})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "query has 2 dims, want 9") {
		t.Fatalf("batch with a 2-dim query = %d %s, want 400 naming 9", w.Code, w.Body.String())
	}
}

// TestStatsMemoryBlock: /v1/stats carries the runtime's heap figures and
// the library's own count of its feature rows.
func TestStatsMemoryBlock(t *testing.T) {
	s := newTestServer(t, Options{})
	var stats struct {
		Library classminer.LibraryStats `json:"library"`
		Memory  map[string]json.Number  `json:"memory"`
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	for _, key := range []string{"heapLiveBytes", "heapGoalBytes", "gcCycles", "featureRowBytes"} {
		if _, ok := stats.Memory[key]; !ok {
			t.Fatalf("memory block lacks %q: %v", key, stats.Memory)
		}
	}
	var want int64 // no video was deleted: every row is a registered shot's
	for _, name := range s.lib.VideoNames() {
		for _, sh := range s.lib.Video(name).Result.Shots {
			want += int64(sh.Row.Bytes())
		}
	}
	if got, _ := stats.Memory["featureRowBytes"].Int64(); got != want || stats.Library.FeatureRowBytes != want || want == 0 {
		t.Fatalf("featureRowBytes = %d (library block %d), want the %d shots' packed rows, %d B",
			got, stats.Library.FeatureRowBytes, stats.Library.Shots, want)
	}
	if goal, _ := stats.Memory["heapGoalBytes"].Int64(); goal <= 0 {
		t.Fatalf("heapGoalBytes = %d", goal)
	}
}
