package server

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"classminer/internal/access"
	"classminer/internal/admit"
	"classminer/internal/trace"
)

// rejectReason indexes the admission-rejection counters (and the `reason`
// label of admit_rejected_total).
type rejectReason int

const (
	rejRateLimit rejectReason = iota
	rejConcurrency
	rejDeadline
	rejMemory
	rejWALPressure
	rejReplLag
	numRejectReasons
)

var rejectReasonNames = [numRejectReasons]string{
	"rate_limit", "concurrency", "deadline", "memory", "wal_pressure", "repl_lag",
}

// tierMultiplier widens the base per-token limit by clearance: a clinician
// mid-procedure gets more headroom than an anonymous browser, and the
// administrator fixing the overload gets the most. Custom clearances above
// Administrator inherit its multiplier.
func tierMultiplier(c access.Clearance) float64 {
	switch {
	case c >= access.Administrator:
		return 8
	case c >= access.Clinician:
		return 4
	case c >= access.Student: // Student, Nurse
		return 2
	default: // Public (and anonymous)
		return 1
	}
}

// admission bundles the server's self-protection state: the per-token rate
// limiter, the per-class concurrency gates and deadlines, and the memory
// watchdog. A nil *admission (every control disabled) is a no-op.
type admission struct {
	limiter  *admit.RateLimiter
	base     admit.Limit // Rate <= 0 disables rate limiting
	gates    [admit.NumClasses]*admit.Gate
	timeouts [admit.NumClasses]time.Duration
	watchdog *admit.Watchdog
	rejected [numRejectReasons]atomic.Uint64
}

// newAdmission assembles the admission state from the (defaulted) options;
// it returns nil when every control is off. onDegrade is installed as the
// watchdog's transition callback.
func newAdmission(opts Options, onDegrade func(from, to admit.Level)) *admission {
	rateOn := opts.Rate > 0
	gatesOn := opts.MaxInflight > 0
	deadlinesOn := opts.ReqTimeout > 0
	memOn := opts.MemBudget > 0
	if !rateOn && !gatesOn && !deadlinesOn && !memOn {
		return nil
	}
	a := &admission{}
	if rateOn {
		a.limiter = admit.NewRateLimiter()
		a.base = admit.Limit{Rate: opts.Rate, Burst: opts.Burst}
	}
	if gatesOn {
		// Search gets the full cap; mutation and admin get progressively
		// narrower slices so a write burst cannot crowd out reads (or an
		// operator trying to intervene). Waiters may park one-per-slot
		// before arrivals shed immediately.
		caps := [admit.NumClasses]int{
			admit.ClassSearch: opts.MaxInflight,
			admit.ClassMutate: max(4, opts.MaxInflight/4),
			admit.ClassAdmin:  max(2, opts.MaxInflight/8),
		}
		for c, n := range caps {
			a.gates[c] = admit.NewGate(n, n, opts.MaxWait)
		}
	}
	if deadlinesOn {
		a.timeouts = [admit.NumClasses]time.Duration{
			admit.ClassSearch: opts.ReqTimeout,
			admit.ClassMutate: opts.ReqTimeout,
			// Admin operations (checkpoint, promote, CPU profiles) are
			// legitimately slow; give them 4x.
			admit.ClassAdmin: 4 * opts.ReqTimeout,
		}
	}
	if memOn {
		a.watchdog = admit.NewWatchdog(admit.WatchdogConfig{
			Budget:   opts.MemBudget,
			Sample:   opts.HeapSample,
			Interval: opts.MemCheckInterval,
			OnChange: onDegrade,
		})
	}
	return a
}

// Close stops the watchdog. Nil-safe.
func (a *admission) Close() {
	if a != nil {
		a.watchdog.Close()
	}
}

// countReject bumps one rejection counter. Nil-safe so handlers need no
// admission-disabled branches.
func (a *admission) countReject(r rejectReason) {
	if a != nil {
		a.rejected[r].Add(1)
	}
}

// degradeLevel reports the watchdog's current level (LevelNormal when the
// watchdog — or admission entirely — is off).
func (a *admission) degradeLevel() admit.Level {
	if a == nil {
		return admit.LevelNormal
	}
	return a.watchdog.Level()
}

// routeClass maps a request onto its admission class, mirroring the
// dispatch in Server.route. /healthz must stay exempt (a load-shedding
// liveness probe is an outage amplifier) and so does /metrics — the
// overload investigation must not be rate-limited away by the overload.
func routeClass(method, path string) (class admit.Class, exempt bool) {
	path = strings.TrimSuffix(path, "/")
	switch path {
	case "/healthz", "/readyz", "/metrics":
		// /readyz joins /healthz: a load balancer probing readiness through a
		// rate limiter would flap the whole node in and out of rotation.
		return 0, true
	}
	if strings.HasPrefix(path, "/v1/repl/") {
		// The replication stream is internal traffic: long-poll pulls parked
		// for tens of seconds would starve the admin concurrency gate, and
		// rate-limiting a catching-up follower only lengthens the unsafe
		// window. Authentication (Administrator clearance) still applies.
		return 0, true
	}
	switch {
	case strings.HasPrefix(path, "/v1/admin/"), path == "/debug/pprof",
		strings.HasPrefix(path, "/debug/pprof/"), path == "/debug/traces":
		return admit.ClassAdmin, false
	case path == "/v1/videos" && method == http.MethodPost:
		return admit.ClassMutate, false
	case strings.HasPrefix(path, "/v1/videos/") && method == http.MethodDelete:
		return admit.ClassMutate, false
	}
	return admit.ClassSearch, false
}

// withAdmit threads admission between auth and the handlers: rate limit,
// then concurrency gate, then request deadline. The order matters — the
// rate limiter is the cheapest check and protects the gates' wait queues
// from one flooding client. The allow path adds no allocation beyond the
// deadline context itself, preserving the search hot path's alloc budget.
func (s *Server) withAdmit(next http.Handler) http.Handler {
	a := s.admit
	if a == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class, exempt := routeClass(r.Method, r.URL.Path)
		if exempt {
			next.ServeHTTP(w, r)
			return
		}
		// The admit span covers the rate-limit check and any time parked at
		// the concurrency gate — the queueing delay a slow trace must show.
		sp := trace.StartSpan(r.Context(), "admit")
		if a.limiter != nil {
			tok := token(r)
			d := a.limiter.Allow(tok, a.base.Scale(tierMultiplier(userOf(r).Clearance)))
			if !d.OK {
				sp.End()
				a.countReject(rejRateLimit)
				writeRateLimited(w, d)
				return
			}
		}
		if g := a.gates[class]; g != nil {
			waited, err := g.Acquire(r.Context())
			if waited > 0 {
				s.metrics.observeAdmitWait(waited)
				sp.SetInt("waitedUs", waited.Microseconds())
			}
			if err != nil {
				sp.End()
				a.countReject(rejConcurrency)
				// The queue rejected in bounded time; a second is a sane
				// lower bound for when a slot might free up.
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable,
					class.String()+" capacity saturated; retry later")
				return
			}
			defer g.Release()
		}
		sp.End()
		if to := a.timeouts[class]; to > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), to)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// writeRateLimited renders a 429 with the Retry-After and X-RateLimit-*
// contract documented in the README. Headers ride only on denials: the
// allow path must not pay for rendering them.
func writeRateLimited(w http.ResponseWriter, d admit.Decision) {
	retry := ceilSeconds(d.RetryAfter)
	h := w.Header()
	h.Set("Retry-After", strconv.Itoa(retry))
	h.Set("X-RateLimit-Limit", strconv.Itoa(d.Limit))
	h.Set("X-RateLimit-Remaining", strconv.Itoa(d.Remaining))
	h.Set("X-RateLimit-Reset", strconv.Itoa(ceilSeconds(d.Reset)))
	writeError(w, http.StatusTooManyRequests,
		"rate limit exceeded; retry in "+strconv.Itoa(retry)+"s")
}

// ceilSeconds rounds a duration up to whole seconds, minimum 1 — telling a
// throttled client "retry in 0s" invites an immediate, equally doomed retry.
func ceilSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// deadlineExpired reports whether the request's context is already dead
// and, if so, writes the 503. Handlers call it before starting (and after
// finishing) expensive work, so a request that blew its deadline mid-search
// returns a clean 503 instead of a half-useful late answer — and never a
// half-written body, since writeJSON buffers and writes in one piece.
func (s *Server) deadlineExpired(w http.ResponseWriter, r *http.Request) bool {
	err := r.Context().Err()
	if err == nil {
		return false
	}
	if err == context.DeadlineExceeded {
		s.admit.countReject(rejDeadline)
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded")
	} else {
		// The client hung up; the write is best-effort.
		writeError(w, http.StatusServiceUnavailable, "request canceled")
	}
	return true
}

// applyDegrade is the watchdog's transition callback: shed the search cache
// at LevelShedCache and above, pause background refits at LevelPauseRebuild
// and above (ingest rejection at LevelRejectIngest is enforced inline by
// handleIngest), and undo each measure on the way back down.
func (s *Server) applyDegrade(from, to admit.Level) {
	wasShed, nowShed := from >= admit.LevelShedCache, to >= admit.LevelShedCache
	if nowShed != wasShed {
		if nowShed {
			s.cache.SetCapacity(s.opts.CacheSize / 4)
		} else {
			s.cache.SetCapacity(s.opts.CacheSize)
		}
	}
	s.rebuilder.SetPaused(to >= admit.LevelPauseRebuild)
	s.opts.Logf("memory watchdog: %s -> %s (budget %d bytes)", from, to, s.opts.MemBudget)
}

// admissionStats is the /v1/stats slice of the admission layer.
type admissionStats struct {
	Enabled      bool              `json:"enabled"`
	DegradeLevel string            `json:"degradeLevel"`
	MemBudget    int64             `json:"memBudgetBytes,omitempty"`
	Rejected     map[string]uint64 `json:"rejected,omitempty"`
	InFlight     map[string]int    `json:"inflight,omitempty"`
	RateBuckets  int               `json:"rateBuckets,omitempty"`
}

func (a *admission) Stats() admissionStats {
	if a == nil {
		return admissionStats{Enabled: false, DegradeLevel: admit.LevelNormal.String()}
	}
	st := admissionStats{
		Enabled:      true,
		DegradeLevel: a.degradeLevel().String(),
		MemBudget:    a.watchdog.Budget(),
		Rejected:     make(map[string]uint64, numRejectReasons),
	}
	for i, name := range rejectReasonNames {
		st.Rejected[name] = a.rejected[i].Load()
	}
	if a.gates[0] != nil {
		st.InFlight = make(map[string]int, admit.NumClasses)
		for c := admit.Class(0); c < admit.NumClasses; c++ {
			st.InFlight[c.String()] = a.gates[c].InFlight()
		}
	}
	if a.limiter != nil {
		st.RateBuckets = a.limiter.Buckets()
	}
	return st
}
