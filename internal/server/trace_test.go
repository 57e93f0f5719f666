package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"classminer"
	"classminer/internal/trace"
)

// tracesPage decodes the GET /debug/traces envelope.
type tracesPage struct {
	Traces []*trace.View `json:"traces"`
	Stats  trace.Stats   `json:"stats"`
}

// findTrace returns the request trace carrying request id rid. An ingest
// job's trace carries its submission's request id too, and may be kept
// before the test looks, so job traces are skipped.
func findTrace(views []*trace.View, rid string) *trace.View {
	for _, v := range views {
		if v.RequestID == rid && v.Route != "job" {
			return v
		}
	}
	return nil
}

func spanSet(v *trace.View) map[string]bool {
	names := map[string]bool{}
	for _, sp := range v.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestDebugTracesCaptureAndGating drives a search through the full stack in
// keep-every-trace mode and asserts the trace ring serves it back — request
// id matching the X-Request-Id header, with the admission, auth, cache and
// search-stage spans — and that the endpoint is Administrator-gated.
func TestDebugTracesCaptureAndGating(t *testing.T) {
	var sink logSink
	s := newTestServer(t, Options{
		TraceSlow: -1, // keep every trace
		Logf:      sink.logf,
	})

	body := map[string]any{"video": "laparoscopy", "shot": 0, "k": 3}
	w := doRaw(t, s, http.MethodPost, "/v1/search", "admin-tok", body)
	if w.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", w.Code, w.Body.String())
	}
	rid := w.Header().Get("X-Request-Id")
	if len(rid) != 16 {
		t.Fatalf("X-Request-Id = %q, want 16 hex chars", rid)
	}

	var page tracesPage
	if code := do(t, s, http.MethodGet, "/debug/traces", "admin-tok", nil, &page); code != http.StatusOK {
		t.Fatalf("debug/traces = %d", code)
	}
	v := findTrace(page.Traces, rid)
	if v == nil {
		t.Fatalf("no trace with requestId %q in %d traces", rid, len(page.Traces))
	}
	if v.Route != "/v1/search" || v.Status != http.StatusOK {
		t.Fatalf("trace = %s %d, want /v1/search 200", v.Route, v.Status)
	}
	names := spanSet(v)
	for _, want := range []string{"request", "admit", "auth", "resolve", "cache.get", "search", "project", "scan", "rank", "filter", "cache.put"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, v.Spans)
		}
	}
	if page.Stats.Kept == 0 || page.Stats.Started == 0 {
		t.Fatalf("stats = %+v, want nonzero started/kept", page.Stats)
	}

	// The request log line carries the id, and keep-all mode means the tail
	// sampler fired, so the structured slow line names the same trace (and,
	// being a slow line, was flushed before the search returned).
	var sawSlow bool
	lines := sink.lines()
	for _, line := range lines {
		if strings.Contains(line, " slow request rid="+rid+" ") {
			sawSlow = true
		}
	}
	if line := requestLine(lines, rid); !strings.Contains(line, "/v1/search") {
		t.Errorf("request log line with rid=%s missing from %q", rid, lines)
	}
	if !sawSlow {
		t.Errorf("slow-request line for rid=%s missing from %q", rid, lines)
	}

	// Filters.
	var filtered tracesPage
	if code := do(t, s, http.MethodGet, "/debug/traces?route=/v1/search", "admin-tok", nil, &filtered); code != http.StatusOK {
		t.Fatalf("route filter = %d", code)
	}
	if len(filtered.Traces) == 0 {
		t.Fatal("route filter dropped the search trace")
	}
	for _, fv := range filtered.Traces {
		if fv.Route != "/v1/search" {
			t.Fatalf("route filter leaked %q", fv.Route)
		}
	}
	if code := do(t, s, http.MethodGet, "/debug/traces?min_ms=3600000", "admin-tok", nil, &filtered); code != http.StatusOK {
		t.Fatalf("min_ms filter = %d", code)
	} else if findTrace(filtered.Traces, rid) != nil {
		t.Fatal("an hour-long min_ms still matched a fast request")
	}
	if code := do(t, s, http.MethodGet, "/debug/traces?status=5xx", "admin-tok", nil, &filtered); code != http.StatusOK {
		t.Fatalf("status filter = %d", code)
	} else if findTrace(filtered.Traces, rid) != nil {
		t.Fatal("status=5xx matched a 200 trace")
	}
	if code := do(t, s, http.MethodGet, "/debug/traces?min_ms=abc", "admin-tok", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad min_ms = %d, want 400", code)
	}
	if code := do(t, s, http.MethodGet, "/debug/traces?status=bogus", "admin-tok", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad status = %d, want 400", code)
	}

	// Clearance gate: anything below Administrator gets 403.
	for _, tok := range []string{"clin-tok", "pub-tok"} {
		if code := do(t, s, http.MethodGet, "/debug/traces", tok, nil, nil); code != http.StatusForbidden {
			t.Fatalf("debug/traces as %s = %d, want 403", tok, code)
		}
	}

	// /v1/stats surfaces the exemplar pointing back into the ring.
	var stats struct {
		Traces struct {
			Exemplars map[string]trace.Exemplar `json:"exemplars"`
		} `json:"traces"`
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	ex, ok := stats.Traces.Exemplars["/v1/search"]
	if !ok || ex.TraceID == "" {
		t.Fatalf("stats exemplars = %+v, want a /v1/search entry", stats.Traces.Exemplars)
	}
}

// TestIngestTraceHasDecodeSpan: a POST /v1/videos trace times the body
// decode as a child of the request span, tagged with the body's size.
func TestIngestTraceHasDecodeSpan(t *testing.T) {
	s := newTestServer(t, Options{TraceSlow: -1})
	body, err := json.Marshal(map[string]any{"subcluster": "medicine", "saved": tinySavedResult("decode-span", 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/videos", bytes.NewReader(body))
	r.Header.Set("X-Api-Token", "admin-tok")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusAccepted {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body.String())
	}
	v := findTrace(s.tracer.Recent(), w.Header().Get("X-Request-Id"))
	if v == nil {
		t.Fatal("no trace for the ingest request")
	}
	for _, sp := range v.Spans {
		if sp.Name != "decode" {
			continue
		}
		if sp.Parent < 0 || v.Spans[sp.Parent].Name != "request" {
			t.Fatalf("decode span's parent = %d, want the request span (spans %v)", sp.Parent, v.Spans)
		}
		if got, want := sp.Attrs["bytes"], strconv.Itoa(len(body)); got != want {
			t.Fatalf("decode span bytes = %q, want %q", got, want)
		}
		return
	}
	t.Fatalf("ingest trace has no decode span (spans %v)", v.Spans)
}

// TestDebugTracesDisabled: with tracing off the endpoint is
// indistinguishable from an unknown route, even for an administrator.
func TestDebugTracesDisabled(t *testing.T) {
	s := newTestServer(t, Options{DisableTracing: true})
	if code := do(t, s, http.MethodGet, "/debug/traces", "admin-tok", nil, nil); code != http.StatusNotFound {
		t.Fatalf("debug/traces with tracing disabled = %d, want 404", code)
	}
	// Requests still get ids without a tracer.
	w := doRaw(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil)
	if w.Code != http.StatusOK || w.Header().Get("X-Request-Id") == "" {
		t.Fatalf("stats = %d, X-Request-Id = %q", w.Code, w.Header().Get("X-Request-Id"))
	}
}

// TestTraceparentPropagation: a valid inbound traceparent is adopted (same
// trace id, our root span as the new parent, sampled honoured) and echoed;
// a malformed one is silently ignored per the W3C spec — never a 400.
func TestTraceparentPropagation(t *testing.T) {
	s := newTestServer(t, Options{TraceSlow: -1})

	const inboundTrace = "0123456789abcdef0123456789abcdef"
	const inboundSpan = "00f067aa0ba902b7"
	r := httptest.NewRequest(http.MethodGet, "/v1/videos", nil)
	r.Header.Set("X-Api-Token", "admin-tok")
	r.Header.Set("Traceparent", "00-"+inboundTrace+"-"+inboundSpan+"-01")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("traced list = %d", w.Code)
	}
	rid := w.Header().Get("X-Request-Id")
	echo := w.Header().Get("Traceparent")
	want := "00-" + inboundTrace + "-" + rid + "-01"
	if echo != want {
		t.Fatalf("Traceparent echo = %q, want %q", echo, want)
	}
	var page tracesPage
	if code := do(t, s, http.MethodGet, "/debug/traces", "admin-tok", nil, &page); code != http.StatusOK {
		t.Fatalf("debug/traces = %d", code)
	}
	v := findTrace(page.Traces, rid)
	if v == nil {
		t.Fatalf("no trace for rid %s", rid)
	}
	if v.TraceID != inboundTrace || v.RemoteParent != inboundSpan {
		t.Fatalf("trace id/parent = %s/%s, want %s/%s", v.TraceID, v.RemoteParent, inboundTrace, inboundSpan)
	}

	for _, bad := range []string{"zz-nope", "00-" + inboundTrace, "not a traceparent"} {
		r := httptest.NewRequest(http.MethodGet, "/v1/videos", nil)
		r.Header.Set("X-Api-Token", "admin-tok")
		r.Header.Set("Traceparent", bad)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("malformed traceparent %q = %d, want 200 (ignored, not rejected)", bad, w.Code)
		}
		if echo := w.Header().Get("Traceparent"); strings.Contains(echo, inboundTrace) {
			t.Fatalf("malformed traceparent %q adopted the old trace id: %q", bad, echo)
		}
	}
}

// TestPanicRecoveryWrites exercises both recovery paths: a panic before any
// write gets the 500 envelope; a panic after a partial write must NOT have
// a second status/body appended. Both bump http_panics_total and keep the
// trace as an error.
func TestPanicRecoveryWrites(t *testing.T) {
	s := newTestServer(t, Options{TraceSlow: time.Hour}) // only errors are kept

	early := s.withTrace(s.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom-early")
	})))
	w := httptest.NewRecorder()
	early.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/panic", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("early panic = %d, want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "internal error") {
		t.Fatalf("early panic body = %q, want the error envelope", w.Body.String())
	}

	mid := s.withTrace(s.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("partial"))
		panic("boom-mid")
	})))
	w = httptest.NewRecorder()
	mid.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/panic", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("mid-response panic rewrote the status to %d", w.Code)
	}
	if got := w.Body.String(); got != "partial" {
		t.Fatalf("mid-response panic body = %q, want exactly %q (no appended envelope)", got, "partial")
	}

	// Both panics were recovered and counted...
	var sb strings.Builder
	if err := s.opts.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "http_panics_total 2") {
		t.Fatalf("metrics missing http_panics_total 2:\n%s", sb.String())
	}
	// ...and both traces were kept by the tail sampler as errors.
	var kept int
	for _, v := range s.tracer.Recent() {
		if v.Reason == "error" && strings.Contains(v.Err, "boom") {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("kept %d panic traces, want 2", kept)
	}
}

// TestJobTraceCarriesRequestID: the request id of the 202 rides on the job
// record, the worker's log lines, and the job's own trace — which, on a
// durable library, shows the register/encode/install stages, the writer-lock
// wait (wal.park) and the append's fsync (wal.fsync.lead).
func TestJobTraceCarriesRequestID(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := classminer.Recover(t.TempDir(), a, classminer.DurableOptions{
		CheckpointBytes: -1, CheckpointRecords: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var logMu sync.Mutex
	var logLines []string
	s := New(lib, Options{
		Tokens:    testTokens(),
		TraceSlow: -1,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logLines = append(logLines, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	defer func() {
		s.Close()
		if err := lib.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	req := map[string]any{"subcluster": "medicine", "saved": tinySavedResult("traced-ingest", 7, 4)}
	w := doRaw(t, s, http.MethodPost, "/v1/videos", "admin-tok", req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body.String())
	}
	rid := w.Header().Get("X-Request-Id")
	var job Job
	if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.RequestID != rid {
		t.Fatalf("202 job requestId = %q, want %q", job.RequestID, rid)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var got Job
		if code := do(t, s, http.MethodGet, "/v1/jobs/"+job.ID, "admin-tok", nil, &got); code != http.StatusOK {
			t.Fatalf("job poll = %d", code)
		}
		if got.Status == JobDone {
			if got.RequestID != rid {
				t.Fatalf("finished job requestId = %q, want %q", got.RequestID, rid)
			}
			break
		}
		if got.Status == JobFailed {
			t.Fatalf("ingest failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest stuck in %s", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var jobView *trace.View
	for _, v := range s.tracer.Recent() {
		if v.Route == "job" && v.RequestID == rid {
			jobView = v
			break
		}
	}
	if jobView == nil {
		t.Fatalf("no job trace with requestId %s", rid)
	}
	names := spanSet(jobView)
	for _, want := range []string{"job", "register", "encode", "install"} {
		if !names[want] {
			t.Errorf("job trace missing span %q (have %v)", want, jobView.Spans)
		}
	}
	for _, want := range []string{"wal.park", "wal.append", "wal.fsync.lead"} {
		if !names[want] {
			t.Errorf("job trace missing span %q (have %v)", want, jobView.Spans)
		}
	}

	var sawQueued, sawDone bool
	logMu.Lock()
	lines := append([]string(nil), logLines...)
	logMu.Unlock()
	for _, line := range lines {
		if strings.Contains(line, "queued ingest") && strings.Contains(line, "rid="+rid) {
			sawQueued = true
		}
		if strings.Contains(line, "ingested") && strings.Contains(line, "rid="+rid) {
			sawDone = true
		}
	}
	if !sawQueued || !sawDone {
		t.Fatalf("job log lines missing rid=%s (queued=%v done=%v): %q", rid, sawQueued, sawDone, logLines)
	}
}
