package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"classminer/internal/admit"
)

// TestAdmitConcurrentBurstExact429: a burst far past the limit gets exactly
// Burst successes — even with every request racing — and the rejects carry
// the Retry-After / X-RateLimit-* contract. Run with -race.
func TestAdmitConcurrentBurstExact429(t *testing.T) {
	s := newTestServer(t, Options{
		Rate: 0.5, Burst: 5, // Public tier is 1x, so pub-tok gets exactly this
		MaxInflight: -1, ReqTimeout: -1, // isolate the rate limiter
	})

	const n = 64
	var ok, limited atomic.Int64
	var mu sync.Mutex
	var denied http.Header
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			r := httptest.NewRequest(http.MethodGet, "/v1/videos", nil)
			r.Header.Set("X-Api-Token", "pub-tok")
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			switch w.Code {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				limited.Add(1)
				mu.Lock()
				denied = w.Header().Clone()
				mu.Unlock()
			default:
				t.Errorf("unexpected status %d: %s", w.Code, w.Body.String())
			}
		}()
	}
	wg.Wait()

	// The burst completes in well under a token's refill time (2s at rate
	// 0.5), so the allowed count is exact, not approximate.
	if ok.Load() != 5 || limited.Load() != n-5 {
		t.Fatalf("burst of %d: %d ok, %d limited; want exactly 5 ok", n, ok.Load(), limited.Load())
	}
	retry, err := strconv.Atoi(denied.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("429 Retry-After = %q, want integer >= 1", denied.Get("Retry-After"))
	}
	if got := denied.Get("X-RateLimit-Limit"); got != "5" {
		t.Fatalf("X-RateLimit-Limit = %q, want 5", got)
	}
	if got := denied.Get("X-RateLimit-Remaining"); got != "0" {
		t.Fatalf("X-RateLimit-Remaining = %q, want 0", got)
	}
	if denied.Get("X-RateLimit-Reset") == "" {
		t.Fatalf("429 missing X-RateLimit-Reset")
	}

	// Buckets are per token: a different caller is not collateral damage.
	if code := do(t, s, http.MethodGet, "/v1/videos", "clin-tok", nil, nil); code != http.StatusOK {
		t.Fatalf("other token after burst = %d, want 200", code)
	}
	// Health stays exempt even for the throttled caller's token.
	r := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	r.Header.Set("X-Api-Token", "pub-tok")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz during throttle = %d, want 200", w.Code)
	}
}

// TestAdmitSaturatedGateSheds: with one search slot held by a stuck request,
// further arrivals park at most MaxWait and then shed with 503 — no
// goroutine pile-up, and service resumes the moment the slot frees.
func TestAdmitSaturatedGateSheds(t *testing.T) {
	s := newTestServer(t, Options{
		MaxInflight: 1, MaxWait: 5 * time.Millisecond,
		ReqTimeout: -1, // a request deadline would free the slot; keep it stuck
	})

	// Occupy the only slot: a search whose body never arrives blocks the
	// handler inside the JSON decode while it holds the gate.
	pr, pw := io.Pipe()
	holdDone := make(chan int, 1)
	go func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/search", pr)
		r.Header.Set("X-Api-Token", "clin-tok")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		holdDone <- w.Code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.admit.gates[admit.ClassSearch].InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("occupier never acquired the search slot")
		}
		time.Sleep(time.Millisecond)
	}

	const n = 4
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			r := httptest.NewRequest(http.MethodGet, "/v1/videos", nil)
			r.Header.Set("X-Api-Token", "clin-tok")
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusServiceUnavailable {
				t.Errorf("saturated search = %d, want 503: %s", w.Code, w.Body.String())
			}
			if w.Header().Get("Retry-After") == "" {
				t.Errorf("503 shed missing Retry-After")
			}
		}()
	}
	wg.Wait()
	if got := s.admit.rejected[rejConcurrency].Load(); got < n {
		t.Fatalf("concurrency rejections = %d, want >= %d", got, n)
	}

	// Unstick the occupier (bad body -> 400) and confirm recovery.
	pw.CloseWithError(io.ErrClosedPipe)
	if code := <-holdDone; code != http.StatusBadRequest {
		t.Fatalf("occupier finished with %d, want 400", code)
	}
	if code := do(t, s, http.MethodGet, "/v1/videos", "clin-tok", nil, nil); code != http.StatusOK {
		t.Fatalf("after slot freed = %d, want 200", code)
	}
}

// TestAdmitDeadlineExceeded503: a request that blows its deadline gets a
// clean 503, not a half-written late answer.
func TestAdmitDeadlineExceeded503(t *testing.T) {
	s := newTestServer(t, Options{ReqTimeout: time.Nanosecond, MaxInflight: -1})

	body := bytes.NewReader([]byte(`{"video":"laparoscopy","shot":0,"k":3}`))
	r := httptest.NewRequest(http.MethodPost, "/v1/search", body)
	r.Header.Set("X-Api-Token", "clin-tok")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired search = %d, want 503: %s", w.Code, w.Body.String())
	}
	if got := s.admit.rejected[rejDeadline].Load(); got != 1 {
		t.Fatalf("deadline rejections = %d, want 1", got)
	}
}

// TestAdmitDegradeThenRecover drives the memory watchdog with an injected
// heap sampler: over budget, ingest sheds with 503 while searches keep
// answering and background refits pause; back under budget, everything
// recovers with no restart.
func TestAdmitDegradeThenRecover(t *testing.T) {
	var heap atomic.Uint64
	heap.Store(100)
	s := newTestServer(t, Options{
		MemBudget:        1000,
		HeapSample:       heap.Load,
		MemCheckInterval: time.Hour, // the test drives sampling via Poke
		MaxInflight:      -1,
		ReqTimeout:       -1,
	})

	if lvl := s.admit.watchdog.Poke(); lvl != admit.LevelNormal {
		t.Fatalf("level at 10%% of budget = %v, want normal", lvl)
	}

	heap.Store(990) // 99% of budget: straight to the last rung
	if lvl := s.admit.watchdog.Poke(); lvl != admit.LevelRejectIngest {
		t.Fatalf("level at 99%% of budget = %v, want reject-ingest", lvl)
	}
	if !s.rebuilder.Paused() {
		t.Fatal("rebuilder not paused under memory pressure")
	}

	// Writes shed; reads stay live.
	ingest := map[string]any{"saved": widen(tinySavedResult("face-repair", 5, 3), 256, 10), "subcluster": "medicine"}
	ingestBody, err := json.Marshal(ingest)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/videos", bytes.NewReader(ingestBody))
	r.Header.Set("X-Api-Token", "clin-tok")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest under pressure = %d, want 503: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("memory-pressure 503 missing Retry-After")
	}
	if code := do(t, s, http.MethodGet, "/v1/videos", "pub-tok", nil, nil); code != http.StatusOK {
		t.Fatalf("search under pressure = %d, want 200 (reads must stay live)", code)
	}
	var stats struct {
		Admission struct {
			DegradeLevel string            `json:"degradeLevel"`
			Rejected     map[string]uint64 `json:"rejected"`
		} `json:"admission"`
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Admission.DegradeLevel != "reject-ingest" {
		t.Fatalf("stats degrade level = %q, want reject-ingest", stats.Admission.DegradeLevel)
	}
	if stats.Admission.Rejected["memory"] == 0 {
		t.Fatal("stats show no memory rejections after an ingest shed")
	}

	// Pressure clears: automatic recovery, no restart.
	heap.Store(100)
	if lvl := s.admit.watchdog.Poke(); lvl != admit.LevelNormal {
		t.Fatalf("level after recovery = %v, want normal", lvl)
	}
	if s.rebuilder.Paused() {
		t.Fatal("rebuilder still paused after recovery")
	}
	if code := do(t, s, http.MethodPost, "/v1/videos", "clin-tok", ingest, nil); code != http.StatusAccepted {
		t.Fatalf("ingest after recovery = %d, want 202", code)
	}
}

// TestRouteClass pins the request taxonomy: probes exempt, admin and writes
// on their own narrower gates, everything else search.
func TestRouteClass(t *testing.T) {
	cases := []struct {
		method, path string
		class        admit.Class
		exempt       bool
	}{
		{http.MethodGet, "/healthz", 0, true},
		{http.MethodGet, "/metrics", 0, true},
		{http.MethodPost, "/v1/search", admit.ClassSearch, false},
		{http.MethodGet, "/v1/videos", admit.ClassSearch, false},
		{http.MethodGet, "/v1/videos/laparoscopy", admit.ClassSearch, false},
		{http.MethodGet, "/v1/jobs/job-1", admit.ClassSearch, false},
		{http.MethodPost, "/v1/videos", admit.ClassMutate, false},
		{http.MethodDelete, "/v1/videos/laparoscopy", admit.ClassMutate, false},
		{http.MethodPost, "/v1/admin/checkpoint", admit.ClassAdmin, false},
		{http.MethodGet, "/debug/pprof/heap", admit.ClassAdmin, false},
	}
	for _, c := range cases {
		class, exempt := routeClass(c.method, c.path)
		if exempt != c.exempt || (!exempt && class != c.class) {
			t.Errorf("routeClass(%s %s) = (%v, %v), want (%v, %v)",
				c.method, c.path, class, exempt, c.class, c.exempt)
		}
	}
}
