package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"classminer"
	"classminer/internal/access"
	"classminer/internal/trace"
)

// reqState is the per-request bundle: the status/bytes-recording
// ResponseWriter, the authenticated user, the request id, and the trace.
// One pooled object carries all of it, and installing it in the context as
// the trace carrier is the request's single context allocation — withAuth
// writes the user into the struct instead of a second context value, which
// is what keeps the serving hot path on its exact allocation budget.
type reqState struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool // headers (or body) already on the wire; see withRecovery

	user  access.User
	roles string // the user's roleKey (see identity)
	rid   string
	err   string // panic note for the trace's tail sampler

	tr   *trace.Trace
	root *trace.Span
}

// TraceSpan makes reqState the context's trace.Carrier, so downstream
// library calls resolve the active span with no extra context value.
func (rs *reqState) TraceSpan() *trace.Span { return rs.root }

func (rs *reqState) WriteHeader(code int) {
	rs.status = code
	rs.wrote = true
	rs.ResponseWriter.WriteHeader(code)
}

func (rs *reqState) Write(p []byte) (int, error) {
	rs.wrote = true
	n, err := rs.ResponseWriter.Write(p)
	rs.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming responses (pprof
// profiles, long listings behind a real http.Server) can flush through the
// recording wrapper instead of buffering to completion.
func (rs *reqState) Flush() {
	if f, ok := rs.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

var reqStatePool = sync.Pool{New: func() any { return new(reqState) }}

// stateOf returns the request's reqState (nil when the request did not pass
// through withTrace — direct handler tests, mainly).
func stateOf(r *http.Request) *reqState {
	rs, _ := trace.CarrierFrom(r.Context()).(*reqState)
	return rs
}

// requestID returns the request's id, "" when untraced.
func requestID(r *http.Request) string {
	if rs := stateOf(r); rs != nil {
		return rs.rid
	}
	return ""
}

// withTrace is the outermost middleware: it assigns the request id (echoed
// as X-Request-Id and doubling as the trace's root span id, so the header
// always names the trace), starts the span tree, records the response, and
// on the way out feeds the per-route metrics, the request log, and the
// tracer's tail sampler. An unsampled fast request costs no heap allocation
// beyond what the old logging+auth middleware already paid.
func (s *Server) withTrace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs := reqStatePool.Get().(*reqState)
		*rs = reqState{ResponseWriter: w, status: http.StatusOK}
		var rid [8]byte
		trace.PutUint64(rid[:], trace.RandU64())
		rs.rid = trace.HexString(rid[:])
		inbound := r.Header.Get("Traceparent")
		rs.tr, rs.root = s.tracer.StartTrace("request", rid, inbound)
		h := w.Header()
		h.Set("X-Request-Id", rs.rid)
		if rs.tr != nil && (inbound != "" || rs.tr.Sampled()) {
			// Echo the propagation context only when the caller is part of a
			// distributed trace (or head sampling fired): the common local
			// request must not pay for rendering the header.
			h.Set("Traceparent", rs.tr.Traceparent())
		}
		start := time.Now()
		next.ServeHTTP(rs, r.WithContext(trace.With(r.Context(), rs)))
		elapsed := time.Since(start)
		route := routeTemplate(r.URL.Path)
		s.metrics.observe(route, rs.status, rs.bytes, elapsed)
		view := s.tracer.Finish(rs.tr, trace.Meta{
			Route:     route,
			Method:    r.Method,
			Status:    rs.status,
			RequestID: rs.rid,
			Err:       rs.err,
		})
		if route != "/healthz" && s.alog != nil {
			slow := ""
			if view.Tail() {
				slow = slowLine(view)
			}
			s.alog.request(start.Add(elapsed), r.Method, r.URL.Path, rs.status, elapsed, rs.rid, slow)
		}
		*rs = reqState{} // drop the user/trace references before pooling
		reqStatePool.Put(rs)
	})
}

// slowLine renders the structured slow-request line for a trace the tail
// sampler kept: one line with the identifiers an operator needs to pull the
// full trace, plus the per-stage breakdown inline.
func slowLine(v *trace.View) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slow request rid=%s trace=%s %s %s -> %d in %.1fms reason=%s",
		v.RequestID, v.TraceID, v.Method, v.Route, v.Status, v.DurationMS, v.Reason)
	if v.Err != "" {
		fmt.Fprintf(&b, " err=%q", v.Err)
	}
	for i := range v.Spans {
		sp := &v.Spans[i]
		if sp.Parent < 0 {
			continue // the root repeats the totals
		}
		fmt.Fprintf(&b, " %s=%dus", sp.Name, sp.DurUS)
	}
	return b.String()
}

// accessLog keeps the request log off the request path. A request appends
// its line to a buffer — no fmt, no sink call, a mutex held for one append —
// and the buffer reaches Logf as one call (one write(2) behind the daemon's
// logger) when it fills, accessLogEvery after its first line, and when the
// server closes. A line an operator may be waiting on does not wait: a status
// of 400 or above, or a slow-request line, flushes the buffer before the
// request returns. Lines carry their own completion time, since the sink's
// stamp is the batch's. A SIGKILL can therefore lose up to accessLogEvery of
// 2xx/3xx lines; nothing else.
type accessLog struct {
	logf  func(format string, args ...any)
	timer *time.Timer // runs flush; armed by the first line into an empty buffer

	mu     sync.Mutex // guards buf, lines and closed
	buf    []byte
	lines  int
	closed bool // after close every line flushes itself

	flushMu sync.Mutex // held across the sink call, so batches land in order
	spare   []byte     // the buffer not being filled; guarded by flushMu
}

const (
	accessLogBytes = 64 << 10
	accessLogEvery = 100 * time.Millisecond
	accessLogStamp = "2006/01/02 15:04:05.000000 "
)

func newAccessLog(logf func(string, ...any)) *accessLog {
	l := &accessLog{
		logf:  logf,
		buf:   make([]byte, 0, accessLogBytes+1024),
		spare: make([]byte, 0, accessLogBytes+1024),
	}
	l.timer = time.AfterFunc(accessLogEvery, l.flush)
	return l
}

// request appends one request's line — and its slow-request line, when the
// tail sampler kept the trace — and flushes if either must not wait. The
// lines are rendered on the caller's stack; the lock covers one copy.
func (l *accessLog) request(end time.Time, method, path string, status int, elapsed time.Duration, rid, slow string) {
	var stack [256]byte
	b := end.AppendFormat(stack[:0], accessLogStamp)
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " -> "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, " ("...)
	b = append(b, elapsed.Round(time.Microsecond).String()...)
	b = append(b, ") rid="...)
	b = append(b, rid...)
	b = append(b, '\n')
	n := 1
	if slow != "" {
		b = append(b, b[:len(accessLogStamp)]...) // the layout is fixed-width: the same stamp
		b = append(b, slow...)
		b = append(b, '\n')
		n = 2
	}
	l.mu.Lock()
	l.buf = append(l.buf, b...)
	l.lines += n
	now := status >= 400 || slow != "" || len(l.buf) >= accessLogBytes || l.closed
	first := l.lines == n
	l.mu.Unlock()
	switch {
	case now:
		l.flush()
	case first:
		l.timer.Reset(accessLogEvery)
	}
}

// flush hands everything buffered to the sink as one call.
func (l *accessLog) flush() {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	batch, n := l.buf, l.lines
	l.buf, l.lines = l.spare[:0], 0
	l.mu.Unlock()
	l.spare = batch
	if n > 0 {
		l.logf("access log, %d lines:\n%s", n, string(batch[:len(batch)-1]))
	}
}

// close flushes what is buffered and makes every later line flush itself, so
// nothing is left to a timer that outlives the server. A nil log is a no-op.
func (l *accessLog) close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.timer.Stop()
	l.flush()
}

// --- GET /debug/traces -------------------------------------------------------

// handleTraces serves the trace ring to Administrator-clearance callers.
// Disabled tracing 404s exactly like an unknown route (traces expose query
// vectors' shape, routes, and timings — their absence should not advertise
// the endpoint). Filters: ?route= (template match), ?min_ms= (at least this
// slow), ?status= (exact code, or a class like "5xx").
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no route %s", r.URL.Path))
		return
	}
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	q := r.URL.Query()
	route := q.Get("route")
	status := q.Get("status")
	var minMS float64
	if v := q.Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad min_ms: "+err.Error())
			return
		}
		minMS = f
	}
	if status != "" && !validStatusFilter(status) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("bad status %q (want a code like 503 or a class like 5xx)", status))
		return
	}
	views := s.tracer.Recent()
	filtered := make([]*trace.View, 0, len(views))
	for _, v := range views {
		if route != "" && v.Route != route {
			continue
		}
		if v.DurationMS < minMS {
			continue
		}
		if status != "" && !statusMatches(status, v.Status) {
			continue
		}
		filtered = append(filtered, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": filtered,
		"stats":  s.tracer.Stats(),
	})
}

func validStatusFilter(f string) bool {
	if len(f) == 3 && f[0] >= '1' && f[0] <= '5' && f[1] == 'x' && f[2] == 'x' {
		return true
	}
	n, err := strconv.Atoi(f)
	return err == nil && n >= 100 && n < 600
}

func statusMatches(f string, status int) bool {
	if len(f) == 3 && f[1] == 'x' && f[2] == 'x' {
		return status/100 == int(f[0]-'0')
	}
	n, _ := strconv.Atoi(f)
	return status == n
}
