package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"classminer"
	"classminer/internal/metrics"
)

// scrape fetches /metrics through the full middleware stack and validates
// the exposition before handing the body back. Every caller therefore also
// re-checks the format CI depends on.
func scrape(t testing.TB, s *Server, token string) string {
	t.Helper()
	w := doRaw(t, s, http.MethodGet, "/metrics", token, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type = %q, want %q", ct, metrics.ContentType)
	}
	body := w.Body.String()
	if err := metrics.ValidateExposition(body); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	return body
}

// metricValue finds the sample line for one fully rendered series (name plus
// label set, exactly as exposed) and returns its value.
func metricValue(t testing.TB, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s has bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %q not in exposition:\n%s", series, body)
	return 0
}

// TestMetricsExpositionWellFormed boots a server, exercises a few routes and
// asserts GET /metrics serves parseable text exposition. This is the test
// the CI scrape step runs.
func TestMetricsExpositionWellFormed(t *testing.T) {
	s := newTestServer(t, Options{})
	if code := do(t, s, http.MethodGet, "/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	req := map[string]any{"video": "laparoscopy", "shot": 0, "k": 5}
	if w := doRaw(t, s, http.MethodPost, "/v1/search", "admin-tok", req); w.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", w.Code, w.Body.String())
	}
	body := scrape(t, s, "admin-tok")
	// The catalogue's fixed families must all be present even at zero.
	for _, fam := range []string{
		"# TYPE http_requests_total counter",
		"# TYPE http_request_duration_seconds histogram",
		"# TYPE search_cache_hits_total counter",
		"# TYPE index_rebuilds_total counter",
		"# TYPE go_goroutines gauge",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("exposition missing %q", fam)
		}
	}
}

// TestMetricsEndToEnd shares one registry between the WAL engine and the
// server, drives real traffic through the API, and asserts the series the
// perf claims rest on actually populate: per-route request counts and
// latency, cache hit/miss, fsync latency, records per fsync, and the
// library's registration counter.
func TestMetricsEndToEnd(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	wopts := classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1, Metrics: reg}
	lib, err := classminer.Recover(t.TempDir(), a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lib.Close() })
	s := New(lib, Options{Tokens: testTokens(), Metrics: reg})
	t.Cleanup(s.Close)

	mustIngest(t, s, "metered-00", 1)
	// Same query twice: the first search misses the cache, the second hits.
	for i := 0; i < 2; i++ {
		if w := doRaw(t, s, http.MethodPost, "/v1/search", "admin-tok", searchBody(7)); w.Code != http.StatusOK {
			t.Fatalf("search %d = %d: %s", i, w.Code, w.Body.String())
		}
	}
	body := scrape(t, s, "admin-tok")

	if v := metricValue(t, body, `http_requests_total{route="/v1/search",status="2xx"}`); v < 2 {
		t.Errorf("search 2xx count = %v, want >= 2", v)
	}
	if v := metricValue(t, body, `http_request_duration_seconds_count{route="/v1/search"}`); v < 2 {
		t.Errorf("search latency samples = %v, want >= 2", v)
	}
	if v := metricValue(t, body, `http_response_bytes_total{route="/v1/search"}`); v <= 0 {
		t.Errorf("search response bytes = %v, want > 0", v)
	}
	if v := metricValue(t, body, "search_cache_misses_total"); v < 1 {
		t.Errorf("cache misses = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "search_cache_hits_total"); v < 1 {
		t.Errorf("cache hits = %v, want >= 1", v)
	}
	// The durable registration fsynced under the default SyncAlways policy,
	// so the WAL's commit-path histograms must hold samples.
	if v := metricValue(t, body, "wal_fsync_duration_seconds_count"); v < 1 {
		t.Errorf("fsync samples = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "wal_group_commit_records_count"); v < 1 {
		t.Errorf("records-per-fsync samples = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "wal_appends_total"); v < 1 {
		t.Errorf("wal appends = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "classminer_registrations_total"); v != 1 {
		t.Errorf("registrations = %v, want 1", v)
	}
	if v := metricValue(t, body, `http_requests_total{route="/v1/videos",status="2xx"}`); v != 1 {
		t.Errorf("ingest 2xx count = %v, want 1", v)
	}
	for _, gone := range []string{"ingest_queue_depth", "ingest_jobs_done_total", "ingest_jobs_failed_total", "ingest_rejected_total"} {
		if strings.Contains(body, gone) {
			t.Errorf("exposition still has %s", gone)
		}
	}
}

// TestMetricsRequireAuth: operational counters reveal workload shape, so
// /metrics sits behind the same token gate as the API.
func TestMetricsRequireAuth(t *testing.T) {
	s := newTestServer(t, Options{})
	if code := do(t, s, http.MethodGet, "/metrics", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated scrape = %d, want 401", code)
	}
	scrape(t, s, "pub-tok") // any authenticated user may scrape
}

// TestPprofGating: the flag off must 404 exactly like a missing route;
// enabled, profiles need Administrator clearance.
func TestPprofGating(t *testing.T) {
	off := newTestServer(t, Options{})
	if code := do(t, off, http.MethodGet, "/debug/pprof/", "admin-tok", nil, nil); code != http.StatusNotFound {
		t.Fatalf("pprof disabled = %d, want 404", code)
	}

	on := newTestServer(t, Options{EnablePprof: true})
	if code := do(t, on, http.MethodGet, "/debug/pprof/", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated pprof = %d, want 401", code)
	}
	if code := do(t, on, http.MethodGet, "/debug/pprof/", "clin-tok", nil, nil); code != http.StatusForbidden {
		t.Fatalf("under-cleared pprof = %d, want 403", code)
	}
	w := doRaw(t, on, http.MethodGet, "/debug/pprof/", "admin-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("pprof index = %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
	if w := doRaw(t, on, http.MethodGet, "/debug/pprof/cmdline", "admin-tok", nil); w.Code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", w.Code)
	}
}

// TestHealthzCountedNotLogged: load-balancer probes must not flood the
// request log, but they still count in the metrics.
func TestHealthzCountedNotLogged(t *testing.T) {
	var sink logSink
	s := newTestServer(t, Options{Logf: sink.logf})
	if code := do(t, s, http.MethodGet, "/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, nil); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	body := scrape(t, s, "admin-tok")
	if v := metricValue(t, body, `http_requests_total{route="/healthz",status="2xx"}`); v < 1 {
		t.Errorf("healthz requests = %v, want >= 1", v)
	}
	s.Close() // the stats line is a 200: it waits in the buffer until a flush
	lines := sink.lines()
	for _, line := range lines {
		if strings.Contains(line, "/healthz") {
			t.Errorf("healthz probe reached the request log: %q", line)
		}
	}
	var logged bool
	for _, line := range lines {
		if strings.Contains(line, "/v1/stats") {
			logged = true
		}
	}
	if !logged {
		t.Errorf("stats request missing from log: %q", lines)
	}
}

// TestStatusWriterFlushAndBytes: the recording wrapper must pass Flush
// through to streaming handlers and count body bytes.
func TestStatusWriterFlushAndBytes(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &reqState{ResponseWriter: rec, status: http.StatusOK}
	if n, err := sw.Write([]byte("hello ")); n != 6 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if _, err := sw.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if sw.bytes != 11 {
		t.Fatalf("bytes = %d, want 11", sw.bytes)
	}
	sw.Flush()
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}
	sw.WriteHeader(http.StatusTeapot)
	if sw.status != http.StatusTeapot {
		t.Fatalf("status = %d", sw.status)
	}
}

// TestRouteTemplate pins the normaliser to the router's dispatch, including
// identifier collapsing and trailing-slash handling.
func TestRouteTemplate(t *testing.T) {
	cases := map[string]string{
		"/healthz":             "/healthz",
		"/v1/search":           "/v1/search",
		"/v1/search/":          "/v1/search",
		"/v1/search/batch":     "/v1/search/batch",
		"/v1/videos":           "/v1/videos",
		"/v1/videos/op-42":     "/v1/videos/{name}",
		"/v1/events/dialog":    "/v1/events/{kind}",
		"/v1/jobs/job-7":       "/v1/jobs/{id}",
		"/v1/admin/checkpoint": "/v1/admin/checkpoint",
		"/v1/admin/compact":    "other",
		"/metrics":             "/metrics",
		"/debug/pprof/heap":    "/debug/pprof",
		"/debug/pprof":         "/debug/pprof",
		"/v1/nope":             "other",
		"/":                    "other",
	}
	for path, want := range cases {
		if got := routeTemplate(path); got != want {
			t.Errorf("routeTemplate(%q) = %q, want %q", path, got, want)
		}
	}
	// Every template the normaliser can return must have registered series.
	s := newTestServer(t, Options{})
	for _, rt := range routeTemplates {
		if s.metrics.byRoute[rt] == nil {
			t.Errorf("route template %q has no instruments", rt)
		}
	}
}
