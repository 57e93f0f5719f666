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

// Applier is what the follower replicates into: one per shard — each
// *classminer.Library behind the daemon's shard router. ApplyRecord must be
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
	// Dir is where the durable per-shard cursor files live (normally the
	// follower's data directory).
	Dir string
	// Appliers is one replication target per leader shard; the count must
	// match the leader's or pulls fail loudly.
	Appliers []Applier
	// PollWait is the long-poll window sent with each pull (default 25s).
	PollWait time.Duration
	// MaxBatchBytes bounds one pulled batch (default 1 MiB).
	MaxBatchBytes int64
	// ReadyLagRecords is the per-shard record lag at or under which Ready
	// reports true (default 0: fully caught up at the last pull).
	ReadyLagRecords int64
	// Client overrides the HTTP client (tests); nil builds one with a
	// timeout covering the long-poll window.
	Client *http.Client
	// Metrics, when non-nil, receives the follower-side per-shard lag and
	// apply counters.
	Metrics *metrics.Registry
	// Logf receives replication progress and errors (nil = silent).
	Logf func(format string, args ...any)
}

// ShardStatus is one shard's replication state, for Ready and /v1/stats.
type ShardStatus struct {
	Shard      int        `json:"shard"`
	Cursor     wal.Cursor `json:"cursor"`
	Seeded     bool       `json:"seeded"`
	LagRecords int64      `json:"lagRecords"`
	LagBytes   int64      `json:"lagBytes"`
	Applied    uint64     `json:"applied"`
	Reseeds    uint64     `json:"reseeds"`
	LastError  string     `json:"lastError,omitempty"`
}

// shardState is one shard's pull loop state.
type shardState struct {
	idx     int
	applier Applier
	path    string // durable cursor file

	mu sync.Mutex
	st ShardStatus
}

func (s *shardState) status() ShardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// cursorFile is the on-disk format of a shard's replication cursor. Seeded
// distinguishes "never initialised" (must snapshot-seed before pulling) from
// a legitimate zero cursor.
type cursorFile struct {
	Cursor wal.Cursor `json:"cursor"`
	Seeded bool       `json:"seeded"`
}

// Follower pulls one replication stream per leader shard and applies it.
// Create with Start, stop with Close, or Promote to stop replicating and
// take writes.
type Follower struct {
	opts   Options
	client *http.Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	shards []*shardState

	// applyHook, when non-nil, runs before each record is applied; an error
	// aborts the batch with the cursor unadvanced. White-box crash-mid-batch
	// tests inject failures here.
	applyHook func(shard int, rec *wal.Record) error

	// onApply fires after a batch or reseed lands new state. The serving
	// layer hooks its index rebuilder here, so a replica's index refits as
	// replicated mutations accumulate exactly as a leader's does on its own
	// writes.
	onApply atomic.Value // func()
}

// SetOnApply registers a callback invoked after each applied batch and each
// reseed. Safe to call while the pull loops run; only the latest callback
// fires.
func (f *Follower) SetOnApply(fn func()) { f.onApply.Store(fn) }

func (f *Follower) notifyApply() {
	if fn, _ := f.onApply.Load().(func()); fn != nil {
		fn()
	}
}

// Start loads the durable cursors and launches one pull loop per shard.
func Start(opts Options) (*Follower, error) {
	return start(opts, nil)
}

func start(opts Options, hook func(int, *wal.Record) error) (*Follower, error) {
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
	if len(opts.Appliers) == 0 {
		return nil, fmt.Errorf("repl: follower needs at least one applier")
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
	f := &Follower{opts: opts, client: opts.Client, applyHook: hook}
	if f.client == nil {
		// The transport timeout must outlive the long-poll window plus the
		// transfer of one full batch.
		f.client = &http.Client{Timeout: opts.PollWait + 30*time.Second}
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for i, a := range opts.Appliers {
		if a == nil {
			f.cancel()
			return nil, fmt.Errorf("repl: shard %d applier is nil", i)
		}
		s := &shardState{
			idx:     i,
			applier: a,
			path:    filepath.Join(opts.Dir, fmt.Sprintf("repl-cursor-%03d.json", i)),
			st:      ShardStatus{Shard: i, LagRecords: -1, LagBytes: -1},
		}
		if err := s.loadCursor(); err != nil {
			f.cancel()
			return nil, err
		}
		f.shards = append(f.shards, s)
	}
	f.registerMetrics()
	for _, s := range f.shards {
		f.wg.Add(1)
		go f.run(s)
	}
	return f, nil
}

// loadCursor restores the shard's durable cursor; a missing file means cold
// (seed first).
func (s *shardState) loadCursor() error {
	b, err := os.ReadFile(s.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("repl: %w", err)
	}
	var cf cursorFile
	if err := json.Unmarshal(b, &cf); err != nil {
		return fmt.Errorf("repl: parsing %s: %w", s.path, err)
	}
	s.st.Cursor, s.st.Seeded = cf.Cursor, cf.Seeded
	return nil
}

// saveCursor durably persists the shard's cursor. Called only after a batch
// (or reseed) is fully applied — the crash-recovery contract is that the
// on-disk cursor never runs ahead of applied state.
func (s *shardState) saveCursor(cur wal.Cursor) error {
	return store.WriteFileAtomic(s.path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(cursorFile{Cursor: cur, Seeded: true})
	})
}

// Close stops the pull loops and waits for them.
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

// Ready reports whether every shard is seeded and within the lag threshold —
// the /readyz criterion for a follower.
func (f *Follower) Ready() (bool, string) {
	for _, s := range f.shards {
		st := s.status()
		if !st.Seeded {
			return false, fmt.Sprintf("shard %d not seeded", st.Shard)
		}
		if st.LagRecords < 0 {
			return false, fmt.Sprintf("shard %d has not completed a pull", st.Shard)
		}
		if st.LagRecords > f.opts.ReadyLagRecords {
			return false, fmt.Sprintf("shard %d is %d records behind (threshold %d)",
				st.Shard, st.LagRecords, f.opts.ReadyLagRecords)
		}
	}
	return true, ""
}

// Stats reports every shard's replication state.
func (f *Follower) Stats() []ShardStatus {
	out := make([]ShardStatus, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.status()
	}
	return out
}

func (f *Follower) registerMetrics() {
	reg := f.opts.Metrics
	if reg == nil {
		return
	}
	for _, s := range f.shards {
		s := s
		labels := []string{"shard", strconv.Itoa(s.idx)}
		reg.GaugeFunc("repl_follower_lag_records",
			"Records this follower is behind the leader, per shard (-1 before the first pull).",
			func() float64 { return float64(s.status().LagRecords) }, labels...)
		reg.CounterFunc("repl_follower_applied_total",
			"Replicated records applied, per shard.",
			func() float64 { return float64(s.status().Applied) }, labels...)
		reg.CounterFunc("repl_follower_reseeds_total",
			"Snapshot re-seeds this follower performed, per shard.",
			func() float64 { return float64(s.status().Reseeds) }, labels...)
	}
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

// run is one shard's pull loop: seed if cold, then pull-apply-persist
// forever, backing off on errors and re-seeding on 410.
func (f *Follower) run(s *shardState) {
	defer f.wg.Done()
	bo := newBackoff()
	for f.ctx.Err() == nil {
		err := f.step(s)
		if err == nil {
			bo.reset()
			continue
		}
		if f.ctx.Err() != nil {
			return
		}
		s.mu.Lock()
		s.st.LastError = err.Error()
		s.mu.Unlock()
		d := bo.next()
		f.opts.Logf("repl: shard %d: %v (retrying in %v)", s.idx, err, d.Round(time.Millisecond))
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(d):
		}
	}
}

// step performs one protocol round for the shard: a snapshot seed when cold,
// otherwise one pull (which may long-poll at the leader) plus the batch
// application and cursor persist.
func (f *Follower) step(s *shardState) error {
	s.mu.Lock()
	seeded := s.st.Seeded
	cur := s.st.Cursor
	s.mu.Unlock()
	if !seeded {
		return f.reseed(s)
	}
	return f.pull(s, cur)
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
	if cur.Epoch, err = strconv.ParseUint(h.Get(HeaderEpoch), 10, 64); err != nil {
		return cur, fmt.Errorf("repl: bad %s header %q", HeaderEpoch, h.Get(HeaderEpoch))
	}
	return cur, nil
}

// checkShards cross-checks the leader's shard count against ours.
func (f *Follower) checkShards(h http.Header) error {
	v := h.Get(HeaderShards)
	if v == "" {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n != len(f.shards) {
		return fmt.Errorf("repl: leader has %s shards, follower has %d — topology mismatch", v, len(f.shards))
	}
	return nil
}

// lagFromHeaders updates the shard's lag view from a leader response.
func (s *shardState) lagFromHeaders(h http.Header) {
	recs, err1 := strconv.ParseInt(h.Get(HeaderLagRecords), 10, 64)
	bts, err2 := strconv.ParseInt(h.Get(HeaderLagBytes), 10, 64)
	if err1 != nil || err2 != nil {
		return
	}
	s.mu.Lock()
	s.st.LagRecords, s.st.LagBytes = recs, bts
	s.mu.Unlock()
}

// pull fetches and applies one batch from cur. Requesting cur is also the
// durability acknowledgement for everything before it — the leader releases
// its pin up to cur.
func (f *Follower) pull(s *shardState, cur wal.Cursor) error {
	q := url.Values{
		"follower": {f.opts.ID},
		"shard":    {strconv.Itoa(s.idx)},
		"segment":  {strconv.FormatUint(cur.Segment, 10)},
		"offset":   {strconv.FormatInt(cur.Offset, 10)},
		"epoch":    {strconv.FormatUint(cur.Epoch, 10)},
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
		if err := f.checkShards(resp.Header); err != nil {
			return err
		}
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
		applied, err := f.applyBatch(s, body)
		if err != nil {
			return err
		}
		if err := s.saveCursor(next); err != nil {
			return err
		}
		s.mu.Lock()
		s.st.Cursor, s.st.Seeded = next, true
		s.st.Applied += uint64(applied)
		s.st.LastError = ""
		s.mu.Unlock()
		s.lagFromHeaders(resp.Header)
		if applied > 0 {
			f.notifyApply()
		}
		return nil
	case http.StatusNoContent:
		if err := f.checkShards(resp.Header); err != nil {
			return err
		}
		s.mu.Lock()
		s.st.LastError = ""
		s.mu.Unlock()
		s.lagFromHeaders(resp.Header)
		return nil
	case http.StatusGone:
		f.opts.Logf("repl: shard %d cursor behind the leader's horizon; re-seeding", s.idx)
		return f.reseed(s)
	default:
		return leaderError(resp)
	}
}

// applyBatch applies every framed record in body, in order. A failure
// anywhere leaves the cursor unadvanced; re-applying the whole batch later
// is safe because application is idempotent.
func (f *Follower) applyBatch(s *shardState, body []byte) (int, error) {
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
			if err := f.applyHook(s.idx, &rec); err != nil {
				return applied, err
			}
		}
		if err := s.applier.ApplyRecord(f.ctx, &rec); err != nil {
			return applied, fmt.Errorf("repl: applying %s %q: %w", rec.Type, rec.Key, err)
		}
		applied++
	}
}

// reseed pulls the leader's newest checkpoint snapshot, converges the shard
// onto it, and persists the snapshot's cursor. Used on cold start and
// whenever the leader answers 410.
func (f *Follower) reseed(s *shardState) error {
	q := url.Values{
		"follower": {f.opts.ID},
		"shard":    {strconv.Itoa(s.idx)},
	}
	resp, err := f.get("/v1/repl/snapshot", q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return leaderError(resp)
	}
	if err := f.checkShards(resp.Header); err != nil {
		return err
	}
	cur, err := cursorFromHeaders(resp.Header)
	if err != nil {
		return err
	}
	var body io.Reader = resp.Body
	if resp.Header.Get(HeaderSnapshot) == "none" {
		body = nil
	}
	installed, removed, err := s.applier.ReseedFromSnapshot(f.ctx, body)
	if err != nil {
		return fmt.Errorf("repl: reseeding shard %d: %w", s.idx, err)
	}
	if err := s.saveCursor(cur); err != nil {
		return err
	}
	s.mu.Lock()
	s.st.Cursor, s.st.Seeded = cur, true
	s.st.Reseeds++
	s.st.LastError = ""
	s.mu.Unlock()
	s.lagFromHeaders(resp.Header)
	f.notifyApply()
	f.opts.Logf("repl: shard %d reseeded from leader snapshot (%d installed, %d removed), resuming at segment %d",
		s.idx, installed, removed, cur.Segment)
	return nil
}
