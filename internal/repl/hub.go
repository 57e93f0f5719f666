// Package repl replicates a durable library from one leader to N read
// replicas by shipping the leader's write-ahead log. The leader side (Hub)
// exports the library's WAL over two long-poll HTTP endpoints; the follower
// side (Follower) pulls framed batches, applies the typed records through
// the same incremental mutation paths the leader used, and journals them
// into its own WAL — so a follower is itself durable, crash-recoverable,
// and promotable to a write-accepting leader the moment the old one dies.
// A library has one log, so there is one stream.
//
// The protocol is deliberately dumb: a follower's whole state is one durable
// cursor — (segment, offset) in the leader's log — persisted only after a
// batch is fully applied. Pulling from cursor C doubles as the durability
// acknowledgement for everything before C, which is what lets the leader's
// checkpoint pruning advance past shipped log (see the pinning rules in
// internal/wal/repl.go). Every failure collapses onto two recoveries: retry
// with exponential backoff (transient transport or leader errors), or
// re-seed from the leader's newest checkpoint snapshot (HTTP 410 — a
// checkpoint pruned the cursor's segment, the pin was evicted past its
// budget, or the leader lost a relaxed-sync tail). A
// follower crash mid-batch needs nothing special at all: the cursor was not
// advanced, the batch is re-pulled, and application is idempotent.
package repl

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"classminer/internal/metrics"
	"classminer/internal/trace"
	"classminer/internal/wal"
)

// Response headers carrying the replication cursor and lag alongside the
// framed body. The cursor headers on a 200 name the position the follower
// should pull from next (and persist once the batch is applied); on a 204
// they echo the request cursor.
const (
	HeaderSegment    = "X-Repl-Segment"
	HeaderOffset     = "X-Repl-Offset"
	HeaderLagRecords = "X-Repl-Lag-Records"
	HeaderLagBytes   = "X-Repl-Lag-Bytes"
	// HeaderSnapshot on a snapshot response is "full" when a checkpoint body
	// follows and "none" when the leader has never checkpointed (the log
	// alone is the full history).
	HeaderSnapshot = "X-Repl-Snapshot"
)

// Pull-protocol bounds: the default and maximum batch size one pull may
// request, and the longest a pull may park waiting for new log.
const (
	defaultBatchBytes = 1 << 20
	maxBatchBytes     = 8 << 20
	maxPullWait       = 55 * time.Second
)

// Hub is the leader side: the HTTP-facing exporter of the library's WAL
// engine. The server routes /v1/repl/pull and /v1/repl/snapshot here after
// authentication; the Hub owns everything protocol-level below that.
type Hub struct {
	eng  *wal.Engine
	reg  *metrics.Registry
	logf func(string, ...any)

	mu     sync.Mutex
	gauges map[string]bool // followers with registered lag gauges
}

// NewHub builds the leader-side exporter over the library's WAL engine,
// which must be non-nil: replication is only meaningful on a durable
// library.
func NewHub(eng *wal.Engine, reg *metrics.Registry, logf func(string, ...any)) (*Hub, error) {
	if eng == nil {
		return nil, fmt.Errorf("repl: no WAL engine (library not durable)")
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Hub{eng: eng, reg: reg, logf: logf, gauges: map[string]bool{}}, nil
}

// MaxLag is the worst attached follower's backlog — the signal the leader's
// write path sheds on when replication lag exceeds its budget.
func (h *Hub) MaxLag() (records, bytes int64) { return h.eng.MaxPinLag() }

// Stats reports the attached followers, for /v1/stats.
func (h *Hub) Stats() []wal.PinStats { return h.eng.Pins() }

// validateFollowerID bounds follower identifiers: they become file-adjacent
// label values and log fields, so keep them to a tame charset.
func validateFollowerID(id string) error {
	if id == "" {
		return fmt.Errorf("repl: missing follower id")
	}
	if len(id) > 128 {
		return fmt.Errorf("repl: follower id longer than 128 bytes")
	}
	for _, c := range id {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("repl: follower id %q has characters outside [A-Za-z0-9._-]", id)
		}
	}
	return nil
}

// writeErr mirrors the server's uniform error envelope without importing it.
func writeErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", msg)
}

// pullParams is one parsed pull request.
type pullParams struct {
	follower string
	cur      wal.Cursor
	wait     time.Duration
	max      int64
}

func parsePull(r *http.Request) (pullParams, error) {
	q := r.URL.Query()
	p := pullParams{follower: q.Get("follower"), max: defaultBatchBytes}
	if err := validateFollowerID(p.follower); err != nil {
		return p, err
	}
	var err error
	if v := q.Get("segment"); v != "" {
		if p.cur.Segment, err = strconv.ParseUint(v, 10, 64); err != nil {
			return p, fmt.Errorf("repl: bad segment %q", v)
		}
	}
	if v := q.Get("offset"); v != "" {
		if p.cur.Offset, err = strconv.ParseInt(v, 10, 64); err != nil || p.cur.Offset < 0 {
			return p, fmt.Errorf("repl: bad offset %q", v)
		}
	}
	if v := q.Get("wait"); v != "" {
		if p.wait, err = time.ParseDuration(v); err != nil || p.wait < 0 {
			return p, fmt.Errorf("repl: bad wait %q", v)
		}
		if p.wait > maxPullWait {
			p.wait = maxPullWait
		}
	}
	if v := q.Get("max"); v != "" {
		if p.max, err = strconv.ParseInt(v, 10, 64); err != nil || p.max <= 0 {
			return p, fmt.Errorf("repl: bad max %q", v)
		}
		if p.max > maxBatchBytes {
			p.max = maxBatchBytes
		}
	}
	return p, nil
}

// setCursorHeaders stamps the response with a cursor plus the follower's
// remaining backlog.
func (h *Hub) setCursorHeaders(w http.ResponseWriter, follower string, cur wal.Cursor) {
	hd := w.Header()
	hd.Set(HeaderSegment, strconv.FormatUint(cur.Segment, 10))
	hd.Set(HeaderOffset, strconv.FormatInt(cur.Offset, 10))
	for _, p := range h.eng.Pins() {
		if p.ID == follower {
			hd.Set(HeaderLagRecords, strconv.FormatInt(p.LagRecords, 10))
			hd.Set(HeaderLagBytes, strconv.FormatInt(p.LagBytes, 10))
			break
		}
	}
}

// ServePull answers GET /v1/repl/pull: ship the framed records between the
// follower's cursor and the log's durable tip. 200 carries a batch and the
// next cursor; 204 means the follower is at the tip and the long-poll window
// elapsed; 410 Gone means the log cannot serve the cursor any more and the
// follower must re-seed from a snapshot.
func (h *Hub) ServePull(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	p, err := parsePull(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	eng := h.eng
	sp := trace.StartSpan(r.Context(), "repl.ship")
	defer sp.End()

	cur := p.cur
	deadline := time.Now().Add(p.wait)
	attached := false
	for {
		batch, next, rerr := eng.ReadFrom(p.follower, cur, p.max)
		switch {
		case errors.Is(rerr, wal.ErrNotAttached):
			if attached {
				// Attached this very request and evicted already: the pin
				// budget is rejecting this follower, don't loop on it.
				writeErr(w, http.StatusGone, wal.ErrBehindHorizon.Error())
				return
			}
			ac, aerr := eng.Attach(p.follower, cur)
			if aerr != nil {
				if errors.Is(aerr, wal.ErrBehindHorizon) {
					writeErr(w, http.StatusGone, aerr.Error())
					return
				}
				writeErr(w, http.StatusInternalServerError, aerr.Error())
				return
			}
			h.ensureLagGauges(p.follower)
			cur = ac // a zero cursor attaches at the oldest live segment
			attached = true
			continue
		case errors.Is(rerr, wal.ErrBehindHorizon):
			writeErr(w, http.StatusGone, rerr.Error())
			return
		case errors.Is(rerr, wal.ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, rerr.Error())
			return
		case rerr != nil:
			writeErr(w, http.StatusInternalServerError, rerr.Error())
			return
		}
		if len(batch) > 0 {
			h.setCursorHeaders(w, p.follower, next)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(batch)
			return
		}
		// At the tip: park on the durable-advance notification until data
		// arrives, the long-poll window elapses, or the client hangs up.
		remain := time.Until(deadline)
		if remain <= 0 {
			h.setCursorHeaders(w, p.follower, cur)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		notify := eng.DurableNotify()
		timer := time.NewTimer(remain)
		select {
		case <-notify:
		case <-timer.C:
		case <-r.Context().Done():
		}
		timer.Stop()
		if r.Context().Err() != nil {
			h.setCursorHeaders(w, p.follower, cur)
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// ServeSnapshot answers GET /v1/repl/snapshot: register the follower's pin
// at the current horizon and stream the newest checkpoint snapshot — the
// file as it stands on disk, frames of the same records /v1/repl/pull ships,
// behind a header the follower holds it to (wal.ReadSnapshot) — or an empty
// body, HeaderSnapshot "none", when no checkpoint exists yet. The cursor
// headers name the log position the snapshot's state continues from.
func (h *Hub) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q := r.URL.Query()
	follower := q.Get("follower")
	if err := validateFollowerID(follower); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	sp := trace.StartSpan(r.Context(), "repl.seed")
	defer sp.End()

	rc, cur, err := h.eng.Seed(follower)
	if err != nil {
		if errors.Is(err, wal.ErrClosed) {
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		} else {
			writeErr(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	h.ensureLagGauges(follower)
	h.setCursorHeaders(w, follower, cur)
	if rc == nil {
		w.Header().Set(HeaderSnapshot, "none")
		w.WriteHeader(http.StatusOK)
		return
	}
	defer rc.Close()
	w.Header().Set(HeaderSnapshot, "full")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if _, err := io.Copy(w, rc); err != nil {
		// Headers are gone; all we can do is log the truncated stream. The
		// follower's reseed finds it short of its header, applies none of it
		// and retries.
		h.logf("repl: streaming snapshot to %q: %v", follower, err)
	}
	h.logf("repl: follower %q seeded at segment %d", follower, cur.Segment)
}

// ensureLagGauges registers the per-follower lag gauges on first sight of a
// follower. GaugeFunc re-registration replaces the callback, so a follower
// re-attaching after a leader restart simply re-binds.
func (h *Hub) ensureLagGauges(follower string) {
	if h.reg == nil {
		return
	}
	h.mu.Lock()
	seen := h.gauges[follower]
	h.gauges[follower] = true
	h.mu.Unlock()
	if seen {
		return
	}
	pinLag := func(sel func(wal.PinStats) int64) func() float64 {
		return func() float64 {
			for _, p := range h.eng.Pins() {
				if p.ID == follower {
					return float64(sel(p))
				}
			}
			return 0 // detached or evicted: no backlog held against the log
		}
	}
	h.reg.GaugeFunc("repl_lag_records",
		"Unshipped WAL records an attached follower is behind.",
		pinLag(func(p wal.PinStats) int64 { return p.LagRecords }), "follower", follower)
	h.reg.GaugeFunc("repl_lag_bytes",
		"Unshipped WAL bytes an attached follower is behind.",
		pinLag(func(p wal.PinStats) int64 { return p.LagBytes }), "follower", follower)
}
