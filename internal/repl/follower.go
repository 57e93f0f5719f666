package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"classminer/internal/metrics"
	"classminer/internal/store"
	"classminer/internal/wal"
)

// Applier is what the follower replicates into: a *classminer.Library, or
// the daemon's shard router, which hands each record to the shard that owns
// its key and splits a reseed snapshot the same way. ApplyRecord must be
// idempotent (re-applying a batch after a crash is the recovery path) and
// must journal into the applier's own WAL so the follower stays durable and
// promotable.
type Applier interface {
	ApplyRecord(ctx context.Context, rec *wal.Record) error
	ReseedFromSnapshot(ctx context.Context, r io.Reader) (installed, removed int, err error)
}

// Options configures a Follower.
type Options struct {
	// LeaderURL is the leader's base URL (scheme://host:port).
	LeaderURL string
	// Token authenticates against the leader (needs Administrator clearance
	// there); sent as a Bearer token.
	Token string
	// ID names this follower in the leader's pin table, lag metrics and
	// logs. Must match [A-Za-z0-9._-]. Reusing an ID after a restart resumes
	// the same pin, which is exactly right.
	ID string
	// Dir is where the durable cursor file lives (normally the follower's
	// data directory).
	Dir string
	// Applier is the replication target.
	Applier Applier
	// PollWait is the long-poll window sent with each pull (default 25s).
	PollWait time.Duration
	// MaxBatchBytes bounds one pulled batch (default 1 MiB).
	MaxBatchBytes int64
	// Client overrides the HTTP client (tests); nil builds one with a
	// timeout covering the long-poll window.
	Client *http.Client
	// Metrics, when non-nil, receives the follower-side lag and apply
	// counters.
	Metrics *metrics.Registry
	// Logf receives replication progress and errors (nil = silent).
	Logf func(format string, args ...any)
}

// Status is the follower's replication state, for Ready and /v1/stats.
type Status struct {
	Cursor     wal.Cursor `json:"cursor"`
	Seeded     bool       `json:"seeded"`
	LagRecords int64      `json:"lagRecords"`
	LagBytes   int64      `json:"lagBytes"`
	Applied    uint64     `json:"applied"`
	Reseeds    uint64     `json:"reseeds"`
	LastError  string     `json:"lastError,omitempty"`
}

// cursorName is the durable cursor file in Options.Dir. The 000 dates from
// when a leader exported one stream per shard and this was the first; the
// name is kept so a follower dir written then resumes from its cursor.
const cursorName = "repl-cursor-000.json"

// cursorFile is the on-disk format of the replication cursor. Seeded
// distinguishes "never initialised" (must snapshot-seed before pulling) from
// a legitimate zero cursor.
type cursorFile struct {
	Cursor wal.Cursor `json:"cursor"`
	Seeded bool       `json:"seeded"`
}

// Follower pulls the leader's replication stream and applies it. Create
// with Start, stop with Close, or Promote to stop replicating and take
// writes.
type Follower struct {
	opts   Options
	client *http.Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	path   string // durable cursor file

	mu sync.Mutex
	st Status

	// applyHook, when non-nil, runs before each record is applied; an error
	// aborts the batch with the cursor unadvanced. White-box crash-mid-batch
	// tests inject failures here.
	applyHook func(rec *wal.Record) error

	// onApply fires after a batch or reseed lands new state. The serving
	// layer hooks its index rebuilder here, so a replica's index refits as
	// replicated mutations accumulate exactly as a leader's does on its own
	// writes.
	onApply atomic.Value // func()
}

// SetOnApply registers a callback invoked after each applied batch and each
// reseed. Safe to call while the pull loop runs; only the latest callback
// fires.
func (f *Follower) SetOnApply(fn func()) { f.onApply.Store(fn) }

func (f *Follower) notifyApply() {
	if fn, _ := f.onApply.Load().(func()); fn != nil {
		fn()
	}
}

// Start loads the durable cursor and launches the pull loop.
func Start(opts Options) (*Follower, error) {
	return start(opts, nil)
}

func start(opts Options, hook func(*wal.Record) error) (*Follower, error) {
	if opts.LeaderURL == "" {
		return nil, fmt.Errorf("repl: follower needs a leader URL")
	}
	if _, err := url.Parse(opts.LeaderURL); err != nil {
		return nil, fmt.Errorf("repl: bad leader URL: %w", err)
	}
	if err := validateFollowerID(opts.ID); err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("repl: follower needs a cursor directory")
	}
	if opts.Applier == nil {
		return nil, fmt.Errorf("repl: follower needs an applier")
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 25 * time.Second
	}
	if opts.PollWait > maxPullWait {
		opts.PollWait = maxPullWait
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = defaultBatchBytes
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	f := &Follower{
		opts:      opts,
		client:    opts.Client,
		path:      filepath.Join(opts.Dir, cursorName),
		st:        Status{LagRecords: -1, LagBytes: -1},
		applyHook: hook,
	}
	if f.client == nil {
		// The transport timeout must outlive the long-poll window plus the
		// transfer of one full batch.
		f.client = &http.Client{Timeout: opts.PollWait + 30*time.Second}
	}
	if err := f.loadCursor(); err != nil {
		return nil, err
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.registerMetrics()
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// loadCursor restores the durable cursor; a missing file means cold (seed
// first).
func (f *Follower) loadCursor() error {
	b, err := os.ReadFile(f.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("repl: %w", err)
	}
	var cf cursorFile
	if err := json.Unmarshal(b, &cf); err != nil {
		return fmt.Errorf("repl: parsing %s: %w", f.path, err)
	}
	f.st.Cursor, f.st.Seeded = cf.Cursor, cf.Seeded
	return nil
}

// saveCursor durably persists the cursor. Called only after a batch (or
// reseed) is fully applied — the crash-recovery contract is that the on-disk
// cursor never runs ahead of applied state.
func (f *Follower) saveCursor(cur wal.Cursor) error {
	return store.WriteFileAtomic(f.path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(cursorFile{Cursor: cur, Seeded: true})
	})
}

// Close stops the pull loop and waits for it.
func (f *Follower) Close() {
	f.cancel()
	f.wg.Wait()
}

// Promote stops replication so the caller can flip the node into a
// write-accepting leader. The library underneath was journaled through the
// whole time, so nothing needs rebuilding — after Promote the node's own WAL
// is the authoritative log.
func (f *Follower) Promote() {
	f.Close()
	f.opts.Logf("repl: follower %q promoted; replication stopped", f.opts.ID)
}

// Ready reports whether the follower is seeded and was fully caught up at
// its last pull — the /readyz criterion for a follower.
func (f *Follower) Ready() (bool, string) {
	st := f.Stats()
	if !st.Seeded {
		return false, "not seeded"
	}
	if st.LagRecords < 0 {
		return false, "has not completed a pull"
	}
	if st.LagRecords > 0 {
		return false, fmt.Sprintf("%d records behind", st.LagRecords)
	}
	return true, ""
}

// Stats reports the follower's replication state.
func (f *Follower) Stats() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

func (f *Follower) registerMetrics() {
	reg := f.opts.Metrics
	if reg == nil {
		return
	}
	reg.GaugeFunc("repl_follower_lag_records",
		"Records this follower is behind the leader (-1 before the first pull).",
		func() float64 { return float64(f.Stats().LagRecords) })
	reg.CounterFunc("repl_follower_applied_total",
		"Replicated records applied.",
		func() float64 { return float64(f.Stats().Applied) })
	reg.CounterFunc("repl_follower_reseeds_total",
		"Snapshot re-seeds this follower performed.",
		func() float64 { return float64(f.Stats().Reseeds) })
}

// backoff is the retry pacing for transport and leader errors: exponential
// from 100ms, capped at 5s, with ±50% jitter so a fleet of followers does
// not stampede a recovering leader.
type backoff struct {
	d   time.Duration
	rng *rand.Rand
}

func newBackoff() *backoff {
	return &backoff{rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
}

func (b *backoff) next() time.Duration {
	if b.d == 0 {
		b.d = 100 * time.Millisecond
	} else {
		b.d *= 2
		if b.d > 5*time.Second {
			b.d = 5 * time.Second
		}
	}
	half := b.d / 2
	return half + time.Duration(b.rng.Int63n(int64(b.d-half)+1))
}

func (b *backoff) reset() { b.d = 0 }

// run is the pull loop: seed if cold, then pull-apply-persist forever,
// backing off on errors and re-seeding on 410.
func (f *Follower) run() {
	defer f.wg.Done()
	bo := newBackoff()
	for f.ctx.Err() == nil {
		err := f.step()
		if err == nil {
			bo.reset()
			continue
		}
		if f.ctx.Err() != nil {
			return
		}
		f.mu.Lock()
		f.st.LastError = err.Error()
		f.mu.Unlock()
		d := bo.next()
		f.opts.Logf("repl: %v (retrying in %v)", err, d.Round(time.Millisecond))
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(d):
		}
	}
}

// step performs one protocol round: a snapshot seed when cold, otherwise one
// pull (which may long-poll at the leader) plus the batch application and
// cursor persist.
func (f *Follower) step() error {
	st := f.Stats()
	if !st.Seeded {
		return f.reseed()
	}
	return f.pull(st.Cursor)
}

// get issues one authenticated GET against the leader.
func (f *Follower) get(path string, q url.Values) (*http.Response, error) {
	u := f.opts.LeaderURL + path + "?" + q.Encode()
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if f.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+f.opts.Token)
	}
	return f.client.Do(req)
}

// leaderError summarises a non-OK leader response, draining a bounded slice
// of the body for the message.
func leaderError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("repl: leader returned %s: %s", resp.Status, bytes.TrimSpace(b))
}

// cursorFromHeaders parses the X-Repl-* cursor headers.
func cursorFromHeaders(h http.Header) (wal.Cursor, error) {
	var cur wal.Cursor
	var err error
	if cur.Segment, err = strconv.ParseUint(h.Get(HeaderSegment), 10, 64); err != nil {
		return cur, fmt.Errorf("repl: bad %s header %q", HeaderSegment, h.Get(HeaderSegment))
	}
	if cur.Offset, err = strconv.ParseInt(h.Get(HeaderOffset), 10, 64); err != nil {
		return cur, fmt.Errorf("repl: bad %s header %q", HeaderOffset, h.Get(HeaderOffset))
	}
	return cur, nil
}

// lagFromHeaders updates the lag view from a leader response.
func (f *Follower) lagFromHeaders(h http.Header) {
	recs, err1 := strconv.ParseInt(h.Get(HeaderLagRecords), 10, 64)
	bts, err2 := strconv.ParseInt(h.Get(HeaderLagBytes), 10, 64)
	if err1 != nil || err2 != nil {
		return
	}
	f.mu.Lock()
	f.st.LagRecords, f.st.LagBytes = recs, bts
	f.mu.Unlock()
}

// pull fetches and applies one batch from cur. Requesting cur is also the
// durability acknowledgement for everything before it — the leader releases
// its pin up to cur.
func (f *Follower) pull(cur wal.Cursor) error {
	q := url.Values{
		"follower": {f.opts.ID},
		"segment":  {strconv.FormatUint(cur.Segment, 10)},
		"offset":   {strconv.FormatInt(cur.Offset, 10)},
		"wait":     {f.opts.PollWait.String()},
		"max":      {strconv.FormatInt(f.opts.MaxBatchBytes, 10)},
	}
	resp, err := f.get("/v1/repl/pull", q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		next, err := cursorFromHeaders(resp.Header)
		if err != nil {
			return err
		}
		// One batch is bounded by the requested max plus the record that
		// straddles it; anything past that is a protocol violation.
		body, err := io.ReadAll(io.LimitReader(resp.Body, f.opts.MaxBatchBytes+wal.MaxRecordBytes+wal.FrameOverhead))
		if err != nil {
			return fmt.Errorf("repl: reading batch: %w", err)
		}
		applied, err := f.applyBatch(body)
		if err != nil {
			return err
		}
		if err := f.saveCursor(next); err != nil {
			return err
		}
		f.mu.Lock()
		f.st.Cursor, f.st.Seeded = next, true
		f.st.Applied += uint64(applied)
		f.st.LastError = ""
		f.mu.Unlock()
		f.lagFromHeaders(resp.Header)
		if applied > 0 {
			f.notifyApply()
		}
		return nil
	case http.StatusNoContent:
		f.mu.Lock()
		f.st.LastError = ""
		f.mu.Unlock()
		f.lagFromHeaders(resp.Header)
		return nil
	case http.StatusGone:
		f.opts.Logf("repl: cursor behind the leader's horizon; re-seeding")
		return f.reseed()
	default:
		return leaderError(resp)
	}
}

// applyBatch applies every framed record in body, in order. A failure
// anywhere leaves the cursor unadvanced; re-applying the whole batch later
// is safe because application is idempotent.
func (f *Follower) applyBatch(body []byte) (int, error) {
	rd := bytes.NewReader(body)
	applied := 0
	var rec wal.Record
	for {
		frame, err := wal.ReadRecord(rd)
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			return applied, fmt.Errorf("repl: corrupt batch frame: %w", err)
		}
		if err := wal.DecodeRecordInto(&rec, frame); err != nil {
			return applied, err
		}
		if f.applyHook != nil {
			if err := f.applyHook(&rec); err != nil {
				return applied, err
			}
		}
		if err := f.opts.Applier.ApplyRecord(f.ctx, &rec); err != nil {
			return applied, fmt.Errorf("repl: applying %s %q: %w", rec.Type, rec.Key, err)
		}
		applied++
	}
}

// reseed pulls the leader's newest checkpoint snapshot, converges the
// applier onto it, and persists the snapshot's cursor. Used on cold start
// and whenever the leader answers 410.
func (f *Follower) reseed() error {
	resp, err := f.get("/v1/repl/snapshot", url.Values{"follower": {f.opts.ID}})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return leaderError(resp)
	}
	cur, err := cursorFromHeaders(resp.Header)
	if err != nil {
		return err
	}
	var body io.Reader = resp.Body
	if resp.Header.Get(HeaderSnapshot) == "none" {
		body = nil
	}
	installed, removed, err := f.opts.Applier.ReseedFromSnapshot(f.ctx, body)
	if err != nil {
		return fmt.Errorf("repl: reseeding: %w", err)
	}
	if err := f.saveCursor(cur); err != nil {
		return err
	}
	f.mu.Lock()
	f.st.Cursor, f.st.Seeded = cur, true
	f.st.Reseeds++
	f.st.LastError = ""
	f.mu.Unlock()
	f.lagFromHeaders(resp.Header)
	f.notifyApply()
	f.opts.Logf("repl: reseeded from leader snapshot (%d installed, %d removed), resuming at segment %d",
		installed, removed, cur.Segment)
	return nil
}
