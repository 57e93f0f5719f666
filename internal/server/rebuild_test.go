package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"classminer"
	"classminer/internal/store"
)

// TestRebuilderCoalescesIngestBurst pins the write-path contract: a burst
// of ingests costs at most a couple of full index rebuilds (the cold-start
// single-flight build plus, at most, one budget-driven background refit),
// not one per ingest — while every ingested video is searchable the moment
// its 202 arrives.
func TestRebuilderCoalescesIngestBurst(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := classminer.NewLibrary(a)
	s := New(lib, Options{
		Tokens:          testTokens(),
		RebuildBudget:   0.5, // roomy: the burst should ride the overlay
		RebuildDebounce: 50 * time.Millisecond,
	})
	t.Cleanup(s.Close)

	const n = 12
	for i := 0; i < n; i++ {
		mustIngest(t, s, fmt.Sprintf("burst-%02d", i), int64(i))
		// Done means searchable: query the video's own first shot.
		req := map[string]any{"video": fmt.Sprintf("burst-%02d", i), "shot": 0, "k": 1}
		var resp struct {
			Hits []searchHit `json:"hits"`
		}
		if code := do(t, s, http.MethodPost, "/v1/search", "admin-tok", req, &resp); code != http.StatusOK {
			t.Fatalf("search after ingest %d = %d", i, code)
		}
		if len(resp.Hits) == 0 || resp.Hits[0].Video != fmt.Sprintf("burst-%02d", i) {
			t.Fatalf("video burst-%02d not searchable after its 202: %+v", i, resp.Hits)
		}
	}
	// Let any debounced background refit land before counting.
	time.Sleep(300 * time.Millisecond)
	rebuilds := s.rebuilder.rebuilds.Load()
	if rebuilds > 3 {
		t.Fatalf("burst of %d ingests cost %d rebuilds, want <= 3 (coalescing broken)", n, rebuilds)
	}
	if lib.IndexStale() {
		t.Fatal("index stale after the burst settled")
	}
}

// TestRebuilderBudgetTriggersRefit: once the incremental overlay outgrows
// the staleness budget, the debounced background rebuilder refits without
// any explicit BuildIndex call.
func TestRebuilderBudgetTriggersRefit(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := classminer.NewLibrary(a)
	s := New(lib, Options{
		Tokens:          testTokens(),
		RebuildBudget:   0.2,
		RebuildDebounce: 20 * time.Millisecond,
	})
	t.Cleanup(s.Close)

	for i := 0; i < 4; i++ {
		mustIngest(t, s, fmt.Sprintf("seed-%02d", i), int64(i))
	}
	base := s.rebuilder.rebuilds.Load()
	// Blow well past 20% churn in one burst.
	for i := 0; i < 4; i++ {
		mustIngest(t, s, fmt.Sprintf("extra-%02d", i), int64(40+i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for lib.IndexStaleness() > 0.2 || lib.IndexStale() {
		if time.Now().After(deadline) {
			t.Fatalf("staleness %v still above budget; rebuilds=%d (budget trigger never fired)",
				lib.IndexStaleness(), s.rebuilder.rebuilds.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.rebuilder.rebuilds.Load(); got <= base {
		t.Fatalf("rebuild count %d did not advance past %d", got, base)
	}
}

// TestDeleteOnStaleIndexMasksWithoutRebuilding: a DELETE that finds the
// serving index stale (a registration under a concept the fit has no leaf
// for) still takes the video out of search results before it responds, and
// does so without fitting anything inside the request; /metrics shows the
// retired rows and counts only installed fits as rebuilds.
func TestDeleteOnStaleIndexMasksWithoutRebuilding(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := classminer.NewLibrary(a)
	s := New(lib, Options{
		Tokens:          testTokens(),
		RebuildDebounce: time.Hour, // the background refit never runs in this test
	})
	t.Cleanup(s.Close)
	for i := 0; i < 3; i++ {
		mustIngest(t, s, fmt.Sprintf("old-%d", i), int64(i))
	}
	// Registered past the server, so no ingest handler rebuilds for it.
	odd, err := store.DecodeResult(tinySavedResult("new-concept", 9, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.AddResult(odd, "nursing"); err != nil {
		t.Fatal(err)
	}
	if !lib.IndexStale() {
		t.Fatal("setup: index not stale")
	}
	fits, rebuilds := lib.Stats().IndexFits, s.rebuilder.rebuilds.Load()
	if fits != rebuilds {
		t.Fatalf("rebuilder counts %d rebuilds, the library installed %d fits", rebuilds, fits)
	}
	var del struct {
		IndexLive bool `json:"indexLive"`
	}
	if code := do(t, s, http.MethodDelete, "/v1/videos/old-1", "admin-tok", nil, &del); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	if del.IndexLive {
		t.Fatal("indexLive = true with an unindexed registration outstanding")
	}
	if got := lib.Stats().IndexFits; got != fits {
		t.Fatalf("the DELETE request ran %d index fits", got-fits)
	}
	for shot := 0; shot < 3; shot++ {
		var resp struct {
			Hits []searchHit `json:"hits"`
		}
		req := map[string]any{"video": "old-0", "shot": shot, "k": 50}
		if code := do(t, s, http.MethodPost, "/v1/search", "admin-tok", req, &resp); code != http.StatusOK {
			t.Fatalf("search = %d", code)
		}
		for _, h := range resp.Hits {
			if h.Video == "old-1" {
				t.Fatal("deleted video still ranked by the stale index")
			}
		}
	}
	body := scrape(t, s, "admin-tok")
	if v := metricValue(t, body, "classminer_dead_rows"); v != float64(3+1%3) {
		t.Errorf("classminer_dead_rows = %v, want old-1's %d shots", v, 3+1%3)
	}
	if v := metricValue(t, body, "classminer_index_fits_dropped_total"); v != 0 {
		t.Errorf("classminer_index_fits_dropped_total = %v, want 0", v)
	}
	if v := metricValue(t, body, "index_rebuilds_total"); v != float64(fits) {
		t.Errorf("index_rebuilds_total = %v, the library installed %d fits", v, fits)
	}
}

// churnSaved fabricates a 25-shot result shaped like a mined one: 266
// feature dimensions of which about eighteen are non-zero, so a fit over
// 10 000 of them costs what the daemon's does.
func churnSaved(name string, seed int64) *store.SavedResult {
	sr := tinySavedResult(name, seed, 25)
	rng := rand.New(rand.NewSource(seed))
	for i := range sr.Shots {
		color, texture := make([]float64, 256), make([]float64, 10)
		for j := 0; j < 14; j++ {
			color[rng.Intn(len(color))] = rng.Float64()
		}
		for j := 0; j < 4; j++ {
			texture[rng.Intn(len(texture))] = rng.Float64()
		}
		sr.Shots[i].Color, sr.Shots[i].Texture = color, texture
	}
	return sr
}

// BenchmarkChurnWithRebuilder is ingest-churn in process: 8 writers each
// ingest a 25-shot video over the HTTP handlers, which answer once it is
// durable and indexed, and delete
// the video 128 ingests back, against a durable (fsync always) library of
// 10 000 base shots and the server's own rebuilder at its default budget
// and debounce. One iteration is one ingest+delete pair. Besides pairs/s it
// reports what the rebuilder made of it: fits installed, fits dropped (the
// library compacting under a fit is the only cause) and the worst staleness
// seen.
func BenchmarkChurnWithRebuilder(b *testing.B) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		b.Fatal(err)
	}
	lib, err := classminer.Recover(b.TempDir(), a, classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lib.Close() })
	const base, lag, writers = 400, 128, 8
	for i := 0; i < base+lag; i++ {
		res, err := store.DecodeResult(churnSaved(fmt.Sprintf("churn-%06d", i), int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if err := lib.AddResult(res, "medicine"); err != nil {
			b.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	s := New(lib, Options{Tokens: testTokens()})
	b.Cleanup(s.Close)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		name := fmt.Sprintf("churn-%06d", base+lag+i)
		if bodies[i], err = json.Marshal(map[string]any{"subcluster": "medicine", "saved": churnSaved(name, int64(base+lag+i+1))}); err != nil {
			b.Fatal(err)
		}
	}
	call := func(method, path string, body []byte, out any) int {
		r := httptest.NewRequest(method, path, bytes.NewReader(body))
		r.Header.Set("X-Api-Token", "admin-tok")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if out != nil {
			if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
				b.Errorf("%s %s: %v", method, path, err)
			}
		}
		return w.Code
	}
	before := lib.Stats()
	var next atomic.Int64
	var maxStale atomic.Uint64 // math.Float64bits of a non-negative float orders like the float
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				if code := call(http.MethodPost, "/v1/videos", bodies[i], nil); code != http.StatusAccepted {
					b.Errorf("ingest %d = %d", i, code)
					return
				}
				if code := call(http.MethodDelete, fmt.Sprintf("/v1/videos/churn-%06d", base+i), nil, nil); code != http.StatusOK {
					b.Errorf("delete %d = %d", i, code)
					return
				}
				stale := math.Float64bits(lib.IndexStaleness())
				for cur := maxStale.Load(); stale > cur && !maxStale.CompareAndSwap(cur, stale); cur = maxStale.Load() {
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	after := lib.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
	b.ReportMetric(float64(after.IndexFits-before.IndexFits), "fits")
	b.ReportMetric(float64(after.IndexFitsDropped-before.IndexFitsDropped), "fits-dropped")
	b.ReportMetric(math.Float64frombits(maxStale.Load()), "max-staleness")
	if got := s.rebuilder.rebuilds.Load(); got != after.IndexFits-before.IndexFits {
		b.Fatalf("rebuilder counts %d rebuilds, the library installed %d fits", got, after.IndexFits-before.IndexFits)
	}
}

// TestRebuildSkipsCurrentFit: the rebuilder asks the library for a fit only
// when one is due. Over an index that is a current full fit with no overlay
// neither of its two triggers — the cold-index EnsureLive and the debounced
// budget check — refits: the fit would be bit-identical, and installing it
// would only advance the generation and drop every cached answer. An overlay
// under the budget is served as it is; one past it is refit, once.
func TestRebuildSkipsCurrentFit(t *testing.T) {
	ctx := context.Background()
	lib := classminer.NewLibrary(nil)
	add := func(name string, seed int64) {
		t.Helper()
		res, err := store.DecodeResult(tinySavedResult(name, seed, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.AddResultCtx(ctx, res, "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		add(fmt.Sprintf("base-%02d", i), int64(i))
	}
	if err := lib.BuildIndexCtx(ctx); err != nil {
		t.Fatal(err)
	}
	s := New(lib, Options{Tokens: testTokens(), RebuildBudget: 0.2})
	t.Cleanup(s.Close)
	budget := func() bool { return lib.RebuildNeeded(s.opts.RebuildBudget) }
	rebuild := func() {
		t.Helper()
		if err := s.rebuilder.EnsureLive(); err != nil {
			t.Fatal(err)
		}
		if err := s.rebuilder.rebuildIf(budget); err != nil {
			t.Fatal(err)
		}
	}

	before := lib.Stats()
	rebuild()
	if after := lib.Stats(); after.IndexFits != before.IndexFits || after.Generation != before.Generation {
		t.Fatalf("a current fit was refit: %+v -> %+v", before, after)
	}
	add("late-00", 100) // 3 of 48 rows: inside the budget
	mid := lib.Stats()
	rebuild()
	if after := lib.Stats(); after.IndexFits != mid.IndexFits || after.IndexStaleness == 0 {
		t.Fatalf("an overlay inside the budget was refit: %+v -> %+v", mid, after)
	}
	for i := 1; i < 4; i++ { // 12 of 48 rows: past it
		add(fmt.Sprintf("late-%02d", i), int64(100+i))
	}
	rebuild()
	after := lib.Stats()
	if after.IndexFits != mid.IndexFits+1 || after.IndexStaleness != 0 {
		t.Fatalf("an overlay past the budget was not refit once: %+v -> %+v", mid, after)
	}
	rebuild()
	if again := lib.Stats(); again.IndexFits != after.IndexFits || again.Generation != after.Generation {
		t.Fatalf("refit although nothing drifted: %+v -> %+v", after, again)
	}
}
