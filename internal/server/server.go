// Package server is the online half of the paper's thesis: mined content
// structure exists so a hospital-scale video database can be indexed,
// managed and *accessed* efficiently (§2, §6). It wraps one
// *classminer.Library in a concurrent HTTP/JSON API — content-hierarchy
// browsing, k-NN shot search through the hierarchical index (with the
// Eq. 24/25 cost statistics in every response), mined-event scene queries,
// and ingestion — with the paper's multilevel access control enforced as
// authentication middleware on every request.
//
// Concurrency model: queries run lock-free against the library's current
// index snapshot (copy-on-write, see Library.BuildIndexCtx); an ingest or a
// delete journals and applies on its own request, answering once the change
// is durable and indexed, and the writes serialise only among themselves;
// repeated searches are answered from a generation-keyed LRU cache that
// self-invalidates whenever the library or its access policy changes.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"classminer"
	"classminer/internal/access"
	"classminer/internal/metrics"
	"classminer/internal/repl"
	"classminer/internal/trace"
)

// Options configures a Server. The zero value requires a token on every
// request but /healthz and serves a 256-entry search cache.
type Options struct {
	// Tokens maps bearer-token values to the users they authenticate
	// (presented as "Authorization: Bearer <token>" or "X-Api-Token").
	Tokens map[string]access.User
	// Anonymous, when non-nil, is the user assumed for requests that carry
	// no token. When nil, unauthenticated requests (except /healthz) get 401.
	Anonymous *access.User
	// CacheSize bounds the search LRU cache (default 256; negative disables).
	CacheSize int
	// RebuildBudget is the index staleness fraction (entries inserted or
	// removed since the last full fit, relative to that fit) that warrants
	// a background refit (default 0.25; mutations below it are served by
	// the incremental overlay alone).
	RebuildBudget float64
	// RebuildDebounce is how long the background rebuilder waits after a
	// mutation for further mutations to coalesce into the same refit
	// (default 250ms).
	RebuildDebounce time.Duration
	// Metrics is the registry GET /metrics exposes (default: a new one);
	// pass a shared registry to combine the server's series with the WAL's
	// (see wal.Options.Metrics).
	Metrics *metrics.Registry
	// EnablePprof serves net/http/pprof under /debug/pprof/ to
	// Administrator-clearance callers. Off by default: profiles expose
	// internals far beyond the API's policy filtering.
	EnablePprof bool

	// --- replication (see internal/repl and the README's "Replication &
	// failover" section) ---

	// ReplHub, when non-nil, exports the library's WAL to
	// followers at GET /v1/repl/pull and /v1/repl/snapshot (both gated on
	// Administrator clearance).
	ReplHub *repl.Hub
	// Follower, when non-nil, marks this node a read replica: ingest and
	// delete are refused with 503 (pointing at LeaderURL) until
	// POST /v1/admin/promote flips the role, and /readyz reports seeding
	// state and replication lag.
	Follower *repl.Follower
	// LeaderURL is advertised to rejected writers on a follower via the
	// X-Repl-Leader response header.
	LeaderURL string
	// WALPressureBytes sheds ingest with 503 + Retry-After once the WAL's
	// un-checkpointed bytes exceed it (0 disables). The background
	// checkpointer drains the condition.
	WALPressureBytes int64
	// ReplLagBytes sheds ingest with 503 + Retry-After once the worst
	// attached follower's unshipped backlog exceeds it (0 disables; needs
	// ReplHub). Follower pulls drain the condition.
	ReplLagBytes int64
	// Logf receives one line per ingest and the request log (nil =
	// silent). Request lines arrive in batches, several lines to a call, each
	// stamped with its own time: see accessLog for when a batch is cut.
	Logf func(format string, args ...any)

	// --- admission control (see internal/admit and the README's "Traffic
	// hardening" section) ---

	// Rate is the per-token sustained request rate (requests/second) for
	// Public-clearance callers; higher tiers get multiples of it. 0 disables
	// rate limiting.
	Rate float64
	// Burst is the token-bucket depth (default 2*Rate).
	Burst float64
	// MaxInflight caps concurrently executing search-class requests; the
	// mutate and admin classes get MaxInflight/4 and /8 (floors of 4 and 2).
	// Default 256; negative disables the concurrency gates.
	MaxInflight int
	// MaxWait is how long a request past the concurrency cap may park
	// waiting for a slot before it is shed with 503 (default 100ms).
	MaxWait time.Duration
	// ReqTimeout is the per-request deadline for search- and mutate-class
	// routes (admin gets 4x), installed as a context deadline. Default 10s;
	// negative disables deadlines.
	ReqTimeout time.Duration
	// MemBudget is the heap budget in bytes. Above it the server degrades
	// in stages (shed cache, pause rebuilds, reject ingest) and recovers
	// automatically. 0 disables the watchdog.
	MemBudget int64
	// HeapSample overrides the watchdog's heap sampler (tests inject
	// pressure here; nil means the Go runtime's live-heap bytes).
	HeapSample func() uint64
	// MemCheckInterval is the watchdog sampling period (default 1s).
	MemCheckInterval time.Duration

	// --- request tracing (see internal/trace and the README's
	// "Observability" section) ---

	// TraceSample is the head-sampling probability in [0,1]: that fraction
	// of requests is traced end to end regardless of outcome. Slow and
	// failed (5xx) requests are always kept independently of it.
	TraceSample float64
	// TraceSlow is the tail-sampling threshold: any request at least this
	// slow keeps its trace. 0 means the default (500ms); negative keeps
	// every trace (the daemon's `-trace-slow 0` spelling).
	TraceSlow time.Duration
	// TraceRing bounds retained traces (default 256).
	TraceRing int
	// DisableTracing turns the tracer off entirely; GET /debug/traces then
	// 404s like an unknown route. X-Request-Id is still assigned.
	DisableTracing bool

	// quiet records that Logf arrived nil, so the request hot path can skip
	// formatting entirely (rendering varargs for a no-op sink costs several
	// allocations per request).
	quiet bool
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.RebuildBudget <= 0 {
		o.RebuildBudget = 0.25
	}
	if o.RebuildDebounce <= 0 {
		o.RebuildDebounce = 250 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
		o.quiet = true
	}
	if o.Burst <= 0 {
		o.Burst = 2 * o.Rate
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 256
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 100 * time.Millisecond
	}
	if o.TraceSlow == 0 {
		o.TraceSlow = 500 * time.Millisecond
	}
	if o.TraceRing <= 0 {
		o.TraceRing = 256
	}
	if o.ReqTimeout == 0 {
		o.ReqTimeout = 10 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	return o
}

// Library is residue: the server fronts one *classminer.Library, and this
// interface names only the method the frozen benchmark (cmd/loadgen) calls
// through it. ROADMAP item 1(d) stops loadgen naming it, and then it goes.
type Library interface {
	SearchIntoCtx(ctx context.Context, dst []classminer.SearchHit, u classminer.User, query []float64, k int) ([]classminer.SearchHit, classminer.SearchStats, error)
}

var _ Library = (*classminer.Library)(nil)

// Server is the HTTP face of one classminer.Library. Create with New, serve
// with any http.Server, and Close when done.
type Server struct {
	lib       *classminer.Library
	opts      Options
	tokens    map[string]identity // opts.Tokens, each with its cache identity
	anon      *identity           // opts.Anonymous likewise; nil = credentials required
	alog      *accessLog          // nil when opts.Logf is
	cache     *searchCache
	jobs      jobLog
	rebuilder *rebuilder
	admit     *admission     // nil when every admission control is disabled
	metrics   *serverMetrics // nil when metrics are disabled
	tracer    *trace.Tracer  // nil when tracing is disabled
	handler   http.Handler
	started   time.Time
	requests  atomic.Int64
	promoted  atomic.Bool // follower flipped to leader via /v1/admin/promote
}

// isFollower reports whether the node is still a read replica (configured as
// a follower and not yet promoted).
func (s *Server) isFollower() bool {
	return s.opts.Follower != nil && !s.promoted.Load()
}

// role is the node's current replication role for /readyz and /v1/stats.
func (s *Server) role() string {
	if s.isFollower() {
		return "follower"
	}
	return "leader"
}

// New builds a Server over lib and starts its background rebuilder.
func New(lib *classminer.Library, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		lib:     lib,
		opts:    opts,
		tokens:  make(map[string]identity, len(opts.Tokens)),
		cache:   newSearchCache(opts.CacheSize),
		started: time.Now(),
	}
	for tok, u := range opts.Tokens {
		s.tokens[tok] = newIdentity(u)
	}
	if opts.Anonymous != nil {
		anon := newIdentity(*opts.Anonymous)
		s.anon = &anon
	}
	if !opts.quiet {
		s.alog = newAccessLog(opts.Logf)
	}
	if !opts.DisableTracing {
		slow := opts.TraceSlow
		if slow < 0 {
			slow = 0 // the tracer's keep-every-trace spelling
		}
		s.tracer = trace.New(trace.Config{
			Sample: opts.TraceSample,
			Slow:   slow,
			Ring:   opts.TraceRing,
		})
	}
	s.rebuilder = newRebuilder(lib, opts.RebuildBudget, opts.RebuildDebounce, opts.Logf, s.tracer)
	if opts.Follower != nil {
		// Replicated applies bypass the mutation handlers, so they must
		// kick the rebuilder themselves or a replica's index never refits.
		opts.Follower.SetOnApply(s.rebuilder.Kick)
	}
	// Admission comes after cache and rebuilder: the watchdog's degrade
	// callback manipulates both and may fire as soon as sampling starts.
	s.admit = newAdmission(opts, s.applyDegrade)
	s.metrics = newServerMetrics(opts.Metrics, s)
	lib.Instrument(opts.Metrics)
	s.handler = s.withTrace(s.withRecovery(s.withAuth(s.withAdmit(http.HandlerFunc(s.route)))))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.handler.ServeHTTP(w, r)
}

// Close stops the background rebuilder and memory watchdog and writes out
// whatever the access log still holds. It waits for no request: stop the
// http.Server first, whose Shutdown waits for in-flight handlers.
func (s *Server) Close() {
	s.rebuilder.Close()
	s.admit.Close()
	s.alog.close()
}

// route dispatches by hand: the declared module version predates pattern
// ServeMux, and the API is small enough that explicit paths read better.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	if path == "" {
		path = "/"
	}
	switch {
	case path == "/healthz":
		s.handleHealth(w, r)
	case path == "/readyz":
		s.get(w, r, s.handleReady)
	case path == "/v1/stats":
		s.get(w, r, s.handleStats)
	case path == "/v1/videos":
		switch r.Method {
		case http.MethodGet:
			s.handleListVideos(w, r)
		case http.MethodPost:
			s.handleIngest(w, r)
		default:
			writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		}
	case strings.HasPrefix(path, "/v1/videos/"):
		name := strings.TrimPrefix(path, "/v1/videos/")
		switch r.Method {
		case http.MethodGet:
			s.handleVideoDetail(w, r, name)
		case http.MethodDelete:
			s.handleDeleteVideo(w, r, name)
		default:
			writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
		}
	case path == "/v1/search":
		s.post(w, r, s.handleSearch)
	case path == "/v1/search/batch":
		s.post(w, r, s.handleSearchBatch)
	case strings.HasPrefix(path, "/v1/events/"):
		s.get(w, r, func(w http.ResponseWriter, r *http.Request) {
			s.handleEvents(w, r, strings.TrimPrefix(path, "/v1/events/"))
		})
	case strings.HasPrefix(path, "/v1/jobs/"):
		s.get(w, r, func(w http.ResponseWriter, r *http.Request) {
			s.handleJob(w, r, strings.TrimPrefix(path, "/v1/jobs/"))
		})
	case path == "/v1/admin/checkpoint":
		s.post(w, r, s.handleAdminCheckpoint)
	case path == "/v1/admin/promote":
		s.post(w, r, s.handleAdminPromote)
	case path == "/v1/repl/pull":
		s.get(w, r, s.handleReplPull)
	case path == "/v1/repl/snapshot":
		s.get(w, r, s.handleReplSnapshot)
	case path == "/metrics":
		s.get(w, r, s.handleMetrics)
	case path == "/debug/pprof" || strings.HasPrefix(path, "/debug/pprof/"):
		s.handlePprof(w, r)
	case path == "/debug/traces":
		s.get(w, r, s.handleTraces)
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("no route %s", r.URL.Path))
	}
}

func (s *Server) get(w http.ResponseWriter, r *http.Request, h http.HandlerFunc) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	h(w, r)
}

func (s *Server) post(w http.ResponseWriter, r *http.Request, h http.HandlerFunc) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	h(w, r)
}
