package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"classminer"
	"classminer/internal/trace"
)

// rebuilder coalesces index rebuilds. The old write path refit the whole
// hierarchical index synchronously after every ingest job and every DELETE
// — O(library) work per mutation. With incremental index maintenance the
// library absorbs mutations into the serving index immediately, so a full
// refit is only warranted when the incremental overlay outgrows the
// staleness budget (or a mutation the overlay cannot absorb lands, e.g. a
// brand-new concept). The rebuilder is the single place that decides:
// mutations Kick it, kicks are debounced so a burst of N ingests costs at
// most one refit, and the refit itself is single-flight — concurrent
// requesters share one BuildIndex instead of queueing N of them.
type rebuilder struct {
	lib      *classminer.Library
	budget   float64 // staleness fraction that warrants a refit
	debounce time.Duration
	logf     func(format string, args ...any)
	tracer   *trace.Tracer // nil disables rebuild traces

	kick      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// paused gates Kick: under memory pressure a full refit (which clones
	// the index) is exactly the allocation spike the watchdog is trying to
	// avoid, so background rebuilds stop until pressure clears. EnsureLive
	// ignores the pause — it is a correctness path (cold start, mutations
	// the overlay cannot absorb), not an optimization.
	paused atomic.Bool

	// buildMu makes rebuilds single-flight: whoever holds it re-checks the
	// need under the latest state, so callers queued behind a finished
	// rebuild return without building again. rebuilds counts the rounds
	// whose fit the library installed (a dropped fit is not a rebuild).
	buildMu  sync.Mutex
	rebuilds atomic.Int64
	// coalesced counts kicks absorbed into an already-open debounce window
	// — the batching win the rebuilder exists for, now observable.
	coalesced atomic.Int64
}

func newRebuilder(lib *classminer.Library, budget float64, debounce time.Duration, logf func(string, ...any), tracer *trace.Tracer) *rebuilder {
	r := &rebuilder{
		lib:      lib,
		budget:   budget,
		debounce: debounce,
		logf:     logf,
		tracer:   tracer,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	r.wg.Add(1)
	go r.loop()
	return r
}

// Kick notes that a mutation happened. The background loop debounces kicks
// and refits only when the staleness budget says so; a kick is never lost
// (the channel holds one pending nudge) and never blocks the mutator.
// While paused (memory pressure), kicks are dropped — SetPaused(false)
// re-kicks to catch up on whatever landed meanwhile.
func (r *rebuilder) Kick() {
	if r.paused.Load() {
		return
	}
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// SetPaused gates background rebuilds. Unpausing kicks once: any mutations
// that landed during the pause get their coalesced refit now.
func (r *rebuilder) SetPaused(p bool) {
	was := r.paused.Swap(p)
	if was && !p {
		r.Kick()
	}
}

// Paused reports whether background rebuilds are currently gated off.
func (r *rebuilder) Paused() bool { return r.paused.Load() }

// EnsureLive brings the index up to date synchronously when it is stale —
// the cold-start path (first ingest into an empty library) and the fallback
// for mutations the incremental overlay could not absorb. Concurrent
// callers coalesce: they all wait on one BuildIndex and the rest find the
// index fresh when they get their turn.
func (r *rebuilder) EnsureLive() error {
	return r.rebuildIf(func() bool { return r.lib.Size() > 0 && r.lib.IndexStale() })
}

// rebuildIf runs single-flight BuildIndex calls until need() no longer holds
// by the time the caller has the build slot. Normally that is one fit: the
// library catches a fit up on the registrations and deletions that raced it,
// so a fit lands whatever ingest and deletes are doing, and landing clears
// the need. The loop goes round again in two cases, both of which make
// progress: the mutations that raced the fit already exceed the staleness
// budget (the next fit is due at once), or the library dropped the fit — it
// compacted its own rows under it, which takes the library halving during
// one fit, and the next fit starts from the compacted rows. Only an
// installed fit counts as a rebuild; the library's own counters say which it
// was. Close ends the loop between fits.
func (r *rebuilder) rebuildIf(need func() bool) error {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	for need() {
		select {
		case <-r.done:
			return nil
		default:
		}
		start := time.Now()
		// Each fit gets its own trace: a refit has no originating request,
		// but operators want the same fit/swap breakdown in /debug/traces
		// that request-driven work gets.
		var sid [8]byte
		trace.PutUint64(sid[:], trace.RandU64())
		tr, root := r.tracer.StartTrace("rebuild", sid, "")
		ctx := context.Background()
		if root != nil {
			ctx = trace.With(ctx, root)
		}
		fits := r.lib.Stats().IndexFits
		err := r.lib.BuildIndexCtx(ctx)
		meta := trace.Meta{Route: "rebuild"}
		if err != nil {
			meta.Err = err.Error()
		}
		r.tracer.Finish(tr, meta)
		if err != nil {
			return err
		}
		if r.lib.Stats().IndexFits == fits {
			r.logf("index fit dropped after %s (the library compacted under it); refitting", time.Since(start).Round(time.Millisecond))
			continue
		}
		r.rebuilds.Add(1)
		r.logf("index rebuilt in %s (staleness now %.3f)", time.Since(start).Round(time.Millisecond), r.lib.IndexStaleness())
	}
	return nil
}

// loop services kicks: wait out the debounce window (absorbing further
// kicks — that is the batching), then refit only if the budget is blown.
func (r *rebuilder) loop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case <-r.kick:
		}
		t := time.NewTimer(r.debounce)
	drain:
		for {
			select {
			case <-r.done:
				t.Stop()
				return
			case <-r.kick:
				// Coalesced into the same window; the timer keeps its
				// original deadline so a steady mutation stream cannot
				// starve the rebuild forever.
				r.coalesced.Add(1)
			case <-t.C:
				break drain
			}
		}
		err := r.rebuildIf(func() bool { return r.lib.RebuildNeeded(r.budget) })
		if err != nil {
			r.logf("background index rebuild: %v", err)
		}
	}
}

// Close stops the background loop and waits for it (an in-flight rebuild
// finishes; the library swap it does is harmless after shutdown). It is
// idempotent — the daemon closes the server both explicitly before its
// shutdown checkpoint and via defer.
func (r *rebuilder) Close() {
	r.closeOnce.Do(func() { close(r.done) })
	r.wg.Wait()
}

// stats is the /v1/stats slice of the rebuilder.
type rebuilderStats struct {
	Rebuilds  int64   `json:"rebuilds"`
	Coalesced int64   `json:"coalesced"`
	Budget    float64 `json:"budget"`
	Staleness float64 `json:"staleness"`
	Paused    bool    `json:"paused"`
}

func (r *rebuilder) Stats() rebuilderStats {
	return rebuilderStats{
		Rebuilds:  r.rebuilds.Load(),
		Coalesced: r.coalesced.Load(),
		Budget:    r.budget,
		Staleness: r.lib.IndexStaleness(),
		Paused:    r.paused.Load(),
	}
}
