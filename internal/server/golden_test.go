package server

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"classminer"
	"classminer/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from what the handlers send now")

// goldenLibrary is a private, hand-built library (nothing mined, nothing
// another test mutates): four tiny videos, one whose name needs every kind of
// JSON string escaping, all under a subcluster only a clinician may see — so a
// public caller's every answer is the empty one.
func goldenLibrary(t *testing.T) *classminer.Library {
	t.Helper()
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := classminer.NewLibrary(a)
	for i, name := range []string{"plain", "r&d <\"cut\"> \\ take\u20281", "café", "bad\xffutf8"} {
		res, err := store.DecodeResult(tinySavedResult(name, int64(40+i), 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.AddResult(res, "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	lib.Protect(classminer.Rule{Concept: "medicine", MinClearance: classminer.Clinician})
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestSearchRepliesGolden pins the bytes of the search surface across the
// four ways a reply is produced: a miss, a batch mixing a single search's
// cache entry with fresh answers and a repeated item, a single search hitting
// an entry the batch stored, and a batch served wholly from the cache — first
// for an administrator, then for a public caller the policy leaves no hits
// (`"hits": []`, never null, through every one of those ways). The files were
// written by the reflection encoder (encoding/json, SetIndent
// "  ") this package used before its search replies were encoded by hand, so
// a mismatch means clients see different bytes. A deliberate change to the
// index's cost counters or ranking moves them too: rerun with -update.
func TestSearchRepliesGolden(t *testing.T) {
	s := New(goldenLibrary(t), Options{Tokens: testTokens()})
	defer s.Close()
	batch := map[string]any{"k": 5, "items": []any{
		map[string]any{"query": searchBody(1)["query"]},
		map[string]any{"query": searchBody(2)["query"]},
		map[string]any{"video": "plain", "shot": 2},
		map[string]any{"query": searchBody(2)["query"]},
	}}
	// A public caller may not name a protected video as the example (403), so
	// its batch is raw vectors only.
	emptyBatch := map[string]any{"k": 5, "items": []any{
		map[string]any{"query": searchBody(1)["query"]},
		map[string]any{"query": searchBody(2)["query"]},
		map[string]any{"query": searchBody(2)["query"]},
	}}
	steps := []struct {
		file, token, path string
		body              any
	}{
		{"search_1_miss.golden", "admin-tok", "/v1/search", searchBody(1)},
		{"search_2_batch_mixed.golden", "admin-tok", "/v1/search/batch", batch},
		{"search_3_hit_after_batch.golden", "admin-tok", "/v1/search", searchBody(2)},
		{"search_4_batch_cached.golden", "admin-tok", "/v1/search/batch", batch},
		{"search_5_empty_miss.golden", "pub-tok", "/v1/search", searchBody(1)},
		{"search_6_empty_batch_mixed.golden", "pub-tok", "/v1/search/batch", emptyBatch},
		{"search_7_empty_hit_after_batch.golden", "pub-tok", "/v1/search", searchBody(2)},
		{"search_8_empty_batch_cached.golden", "pub-tok", "/v1/search/batch", emptyBatch},
	}
	for _, st := range steps {
		w := doRaw(t, s, http.MethodPost, st.path, st.token, st.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d: %s", st.file, w.Code, w.Body.String())
		}
		file := filepath.Join("testdata", st.file)
		if *updateGolden {
			if err := os.WriteFile(file, w.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Body.String(); got != string(want) {
			t.Errorf("%s: reply differs from the golden file\n--- got\n%s\n--- want\n%s", st.file, got, want)
		}
	}
}
