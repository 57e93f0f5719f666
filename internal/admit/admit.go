// Package admit is the server's self-protection layer: the mechanisms that
// keep a shared archive answering when demand exceeds what the hardware (or
// one tenant's fair share) can absorb. The serving layer's observability
// provides the feedback signals — queue depth, heap gauges, staleness — and
// this package provides the controls that consume them:
//
//   - RateLimiter: per-token token buckets, so one client cannot starve the
//     rest. Cheap enough for the zero-alloc search hot path.
//   - Gate: per-route-class concurrency caps with a bounded wait queue, so
//     overload sheds requests instead of piling up goroutines.
//   - Watchdog: a heap-budget monitor that degrades service in stages
//     (shed caches, pause background work, reject writes) and recovers
//     automatically when pressure clears.
//
// The package is policy-free plumbing: it decides allow/deny/degrade and
// reports why; mapping decisions to HTTP status codes, headers and metrics
// is the caller's job.
package admit

import "time"

// Class partitions routes by the resources they contend for, so one
// saturated class (a burst of expensive searches) cannot lock out another
// (an administrator trying to checkpoint).
type Class int

const (
	// ClassSearch covers reads: search, browsing, events, jobs, stats.
	ClassSearch Class = iota
	// ClassMutate covers writes: ingest and delete.
	ClassMutate
	// ClassAdmin covers operator endpoints: checkpoint, promote, pprof.
	ClassAdmin
	// NumClasses sizes per-class tables.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassSearch:
		return "search"
	case ClassMutate:
		return "mutate"
	case ClassAdmin:
		return "admin"
	default:
		return "unknown"
	}
}

// Limit is one token bucket's shape: a sustained refill rate (requests per
// second) and a burst depth (the bucket's capacity). The zero Limit means
// "unlimited" to callers that treat Rate <= 0 as disabled.
type Limit struct {
	Rate  float64
	Burst float64
}

// Scale returns the limit multiplied by f (used to widen a base limit per
// clearance tier).
func (l Limit) Scale(f float64) Limit {
	return Limit{Rate: l.Rate * f, Burst: l.Burst * f}
}

// Decision is one rate-limit verdict plus everything an HTTP layer needs to
// render it: the X-RateLimit-* trio and, on denial, how long the client
// should wait before the bucket has a whole token again.
type Decision struct {
	OK bool
	// RetryAfter is how long until one full token is available (denials
	// only); callers round it up to whole seconds for the Retry-After header.
	RetryAfter time.Duration
	// Limit is the bucket capacity (X-RateLimit-Limit).
	Limit int
	// Remaining is the whole tokens left after this request
	// (X-RateLimit-Remaining).
	Remaining int
	// Reset is how long until the bucket refills completely
	// (X-RateLimit-Reset, as delta-seconds).
	Reset time.Duration
}
