package server

import (
	"strings"
	"time"

	"classminer/internal/admit"
	"classminer/internal/metrics"
)

// routeTemplates are the label values every per-route series is registered
// under. Paths with embedded identifiers collapse onto one template so the
// metric cardinality is fixed no matter how many videos or jobs exist;
// anything the router would 404 lands on "other".
var routeTemplates = []string{
	"/healthz",
	"/readyz",
	"/v1/stats",
	"/v1/videos",
	"/v1/videos/{name}",
	"/v1/search",
	"/v1/search/batch",
	"/v1/events/{kind}",
	"/v1/jobs/{id}",
	"/v1/admin/checkpoint",
	"/v1/admin/promote",
	"/v1/repl/pull",
	"/v1/repl/snapshot",
	"/metrics",
	"/debug/pprof",
	"/debug/traces",
	"other",
}

// routeTemplate maps a request path onto its template. It mirrors the
// dispatch in Server.route (including the trailing-slash normalisation) and
// allocates nothing: every return value is a constant or a subslice.
func routeTemplate(path string) string {
	path = strings.TrimSuffix(path, "/")
	switch path {
	case "/healthz", "/readyz", "/v1/stats", "/v1/videos", "/v1/search", "/v1/search/batch",
		"/v1/admin/checkpoint", "/v1/admin/promote",
		"/v1/repl/pull", "/v1/repl/snapshot", "/metrics", "/debug/traces":
		return path
	}
	switch {
	case strings.HasPrefix(path, "/v1/videos/"):
		return "/v1/videos/{name}"
	case strings.HasPrefix(path, "/v1/events/"):
		return "/v1/events/{kind}"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case path == "/debug/pprof" || strings.HasPrefix(path, "/debug/pprof/"):
		return "/debug/pprof"
	}
	return "other"
}

// statusClasses label the response-status dimension; resolution beyond the
// class would multiply cardinality without telling operators anything the
// request log doesn't.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// routeMetrics holds one route's pre-registered instruments, so the
// per-request path is two pointer derefs and three atomic ops — no map
// writes, no label rendering, no allocation.
type routeMetrics struct {
	status    [5]*metrics.Counter
	latency   *metrics.Histogram
	respBytes *metrics.Counter
}

// serverMetrics is the server's slice of the registry. All instruments are
// registered up front at New; the hot path only looks them up.
type serverMetrics struct {
	byRoute        map[string]*routeMetrics
	ingestRejected *metrics.Counter
	admitWait      *metrics.Histogram
	panics         *metrics.Counter
}

// newServerMetrics registers every server-layer series on reg: per-route
// HTTP counters/histograms plus scrape-time funcs over the cache, ingest
// pool, and rebuilder (funcs rather than counters so the existing mutex-
// guarded stats stay the single source of truth).
func newServerMetrics(reg *metrics.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{byRoute: make(map[string]*routeMetrics, len(routeTemplates))}
	for _, rt := range routeTemplates {
		rm := &routeMetrics{
			latency: reg.Histogram("http_request_duration_seconds",
				"HTTP request latency by route.", metrics.LatencyBuckets, "route", rt),
			respBytes: reg.Counter("http_response_bytes_total",
				"HTTP response body bytes by route.", "route", rt),
		}
		for i, cls := range statusClasses {
			rm.status[i] = reg.Counter("http_requests_total",
				"HTTP requests by route and status class.", "route", rt, "status", cls)
		}
		m.byRoute[rt] = rm
	}
	m.ingestRejected = reg.Counter("ingest_rejected_total",
		"Ingest submissions rejected because the queue was full.")
	m.panics = reg.Counter("http_panics_total",
		"Handler panics recovered by the server.")

	// Request tracing. Started/kept live in the tracer, which /v1/stats
	// reads too; the registry mirrors them at scrape time. Both funcs are
	// nil-safe when tracing is disabled.
	reg.CounterFunc("traces_started_total", "Request traces started.",
		func() float64 { return float64(s.tracer.Started()) })
	reg.CounterFunc("traces_kept_total",
		"Request traces kept by head sampling or the slow/error tail sampler.",
		func() float64 { return float64(s.tracer.Kept()) })

	// Admission control. The rejection counters live in the admission
	// struct, which /v1/stats reads too; the registry mirrors them at
	// scrape time.
	m.admitWait = reg.Histogram("admit_wait_seconds",
		"Time requests spent parked at a concurrency gate before admission or shedding.",
		metrics.LatencyBuckets)
	for i, name := range rejectReasonNames {
		i := i
		reg.CounterFunc("admit_rejected_total",
			"Requests rejected by admission control, by reason.",
			func() float64 {
				if s.admit == nil {
					return 0
				}
				return float64(s.admit.rejected[i].Load())
			}, "reason", name)
	}
	reg.GaugeFunc("degrade_level",
		"Memory-watchdog degradation stage (0 normal, 1 shed cache, 2 pause rebuilds, 3 reject ingest).",
		func() float64 { return float64(s.admit.degradeLevel()) })
	if s.admit != nil {
		for c := admit.Class(0); c < admit.NumClasses; c++ {
			if g := s.admit.gates[c]; g != nil {
				g := g
				reg.GaugeFunc("admit_inflight",
					"Currently executing requests per admission class.",
					func() float64 { return float64(g.InFlight()) }, "class", c.String())
			}
		}
	}

	reg.CounterFunc("search_cache_hits_total", "Search cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("search_cache_misses_total", "Search cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("search_cache_evictions_total", "Search cache LRU evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.GaugeFunc("search_cache_entries", "Search cache resident entries.",
		func() float64 { return float64(s.cache.Stats().Entries) })

	reg.GaugeFunc("ingest_queue_depth", "Ingest jobs waiting for a worker.",
		func() float64 { return float64(s.pool.QueueLen()) })
	reg.CounterFunc("ingest_jobs_done_total", "Ingest jobs completed successfully.",
		func() float64 { return float64(s.pool.Stats(s.opts.Workers).Done) })
	reg.CounterFunc("ingest_jobs_failed_total", "Ingest jobs that failed.",
		func() float64 { return float64(s.pool.Stats(s.opts.Workers).Failed) })

	reg.CounterFunc("index_rebuilds_total", "Full index refits installed by the rebuilder.",
		func() float64 { return float64(s.rebuilder.Stats().Rebuilds) })
	reg.CounterFunc("index_rebuild_kicks_coalesced_total",
		"Mutation kicks absorbed into an already-pending rebuild window.",
		func() float64 { return float64(s.rebuilder.coalesced.Load()) })

	metrics.RegisterGoMetrics(reg)
	return m
}

// countPanic bumps http_panics_total.
func (m *serverMetrics) countPanic() { m.panics.Inc() }

// observeAdmitWait records time spent parked at a concurrency gate.
func (m *serverMetrics) observeAdmitWait(d time.Duration) {
	m.admitWait.Observe(d.Seconds())
}

// observe records one finished request.
func (m *serverMetrics) observe(route string, status int, bytes int64, d time.Duration) {
	rm := m.byRoute[route]
	if rm == nil {
		return
	}
	cls := status/100 - 1
	if cls < 0 {
		cls = 0
	} else if cls > 4 {
		cls = 4
	}
	rm.status[cls].Inc()
	if bytes > 0 {
		rm.respBytes.Add(uint64(bytes))
	}
	rm.latency.Observe(d.Seconds())
}
