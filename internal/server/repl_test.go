package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"classminer"
	"classminer/internal/metrics"
	"classminer/internal/repl"
	"classminer/internal/wal"
)

// newDurableLib opens a durable library in a fresh directory with the
// background maintenance loops disabled.
func newDurableLib(t testing.TB) *classminer.Library {
	t.Helper()
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
	return lib
}

// replPair wires a leader server (exporting its WAL over real HTTP) to a
// follower server replicating from it.
type replPair struct {
	leaderLib *classminer.Library
	leader    *Server
	leaderTS  *httptest.Server

	followerLib *classminer.Library
	follower    *repl.Follower
	fs          *Server
}

// newReplPair boots the leader+follower topology the failover tests drive.
// The caller owns shutdown ordering via the returned struct; pass nil
// registries to skip metrics.
func newReplPair(t testing.TB, leaderReg, followerReg *metrics.Registry) *replPair {
	t.Helper()
	p := &replPair{leaderLib: newDurableLib(t)}
	hub, err := repl.NewHub(p.leaderLib.Engine(), leaderReg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.leader = New(p.leaderLib, Options{Tokens: testTokens(), CacheSize: -1, ReplHub: hub, Metrics: leaderReg})
	p.leaderTS = httptest.NewServer(p.leader)

	p.followerLib = newDurableLib(t)
	p.follower, err = repl.Start(repl.Options{
		LeaderURL: p.leaderTS.URL,
		Token:     "admin-tok",
		ID:        "replica-1",
		Dir:       t.TempDir(),
		Applier:   p.followerLib,
		PollWait:  100 * time.Millisecond,
		Metrics:   followerReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.fs = New(p.followerLib, Options{
		Tokens: testTokens(), CacheSize: -1,
		Follower: p.follower, LeaderURL: p.leaderTS.URL, Metrics: followerReg,
	})
	t.Cleanup(func() {
		p.follower.Close()
		p.fs.Close()
		p.followerLib.Close()
		if p.leader != nil {
			p.leader.Close()
		}
		if p.leaderLib != nil {
			p.leaderLib.Close()
		}
		p.leaderTS.Close()
	})
	return p
}

// waitConverged blocks until the follower is seeded, drained, and holds the
// same video set as the leader. Callers must have stopped leader writes.
func (p *replPair) waitConverged(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := p.follower.Stats()
		if st.Seeded && st.LagRecords == 0 && reflect.DeepEqual(p.followerLib.VideoNames(), p.leaderLib.VideoNames()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: stats=%+v leader=%v follower=%v",
				p.follower.Stats(), p.leaderLib.VideoNames(), p.followerLib.VideoNames())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// identicalSearches asserts both servers answer a fixed query set with
// byte-identical bodies, full-fitting both indexes first so the comparison
// is fit-vs-fit over the same entries in the same WAL order.
func identicalSearches(t testing.TB, a, b *Server, alib, blib *classminer.Library, queries int) {
	t.Helper()
	if err := alib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := blib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < queries; q++ {
		wa := doRaw(t, a, http.MethodPost, "/v1/search", "admin-tok", searchBody(int64(q)))
		wb := doRaw(t, b, http.MethodPost, "/v1/search", "admin-tok", searchBody(int64(q)))
		if wa.Code != http.StatusOK || wb.Code != http.StatusOK {
			t.Fatalf("query %d: leader=%d follower=%d", q, wa.Code, wb.Code)
		}
		if wa.Body.String() != wb.Body.String() {
			t.Fatalf("query %d diverged:\nleader:   %s\nfollower: %s", q, wa.Body.String(), wb.Body.String())
		}
	}
}

// TestFailoverPromoteFollower is the kill-the-leader acceptance test:
// ingest acknowledged writes on the leader, verify the follower serves
// byte-identical searches while refusing writes, SIGKILL-style the leader,
// promote the follower over HTTP, and verify it lost nothing and accepts a
// write. Along the way it checks the per-follower lag surfaces in
// /v1/stats and /metrics on both roles.
func TestFailoverPromoteFollower(t *testing.T) {
	leaderReg, followerReg := metrics.NewRegistry(), metrics.NewRegistry()
	p := newReplPair(t, leaderReg, followerReg)

	const n = 6
	for i := 0; i < n; i++ {
		ingestAndWait(t, p.leader, fmt.Sprintf("acked-%02d", i), int64(i))
	}
	p.waitConverged(t)

	// Readiness: both roles answer /readyz without credentials.
	var ready struct {
		Role  string `json:"role"`
		Ready bool   `json:"ready"`
	}
	if code := do(t, p.leader, http.MethodGet, "/readyz", "", nil, &ready); code != http.StatusOK || ready.Role != "leader" || !ready.Ready {
		t.Fatalf("leader /readyz = %d %+v", code, ready)
	}
	if code := do(t, p.fs, http.MethodGet, "/readyz", "", nil, &ready); code != http.StatusOK || ready.Role != "follower" || !ready.Ready {
		t.Fatalf("follower /readyz = %d %+v", code, ready)
	}

	// The unpromoted follower refuses writes and points at the leader.
	w := doRaw(t, p.fs, http.MethodDelete, "/v1/videos/acked-00", "admin-tok", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("follower delete = %d, want 503", w.Code)
	}
	if got := w.Header().Get("X-Repl-Leader"); got != p.leaderTS.URL {
		t.Fatalf("X-Repl-Leader = %q, want %q", got, p.leaderTS.URL)
	}

	// Replication lag is observable per follower on the leader…
	var stats struct {
		Repl struct {
			Role          string         `json:"role"`
			Followers     []wal.PinStats `json:"followers"`
			MaxLagRecords int64          `json:"maxLagRecords"`
			Stream        *repl.Status   `json:"stream"`
		} `json:"repl"`
	}
	if code := do(t, p.leader, http.MethodGet, "/v1/stats", "admin-tok", nil, &stats); code != http.StatusOK {
		t.Fatalf("leader stats = %d", code)
	}
	if stats.Repl.Role != "leader" || len(stats.Repl.Followers) != 1 || stats.Repl.Followers[0].ID != "replica-1" {
		t.Fatalf("leader repl stats = %+v", stats.Repl)
	}
	lm := doRaw(t, p.leader, http.MethodGet, "/metrics", "admin-tok", nil)
	if lm.Code != http.StatusOK || !strings.Contains(lm.Body.String(), `repl_lag_records{follower="replica-1"}`) {
		t.Fatalf("leader /metrics (%d) missing per-follower lag gauge", lm.Code)
	}
	// …and on the follower side.
	if code := do(t, p.fs, http.MethodGet, "/v1/stats", "admin-tok", nil, &stats); code != http.StatusOK {
		t.Fatalf("follower stats = %d", code)
	}
	if stats.Repl.Role != "follower" || stats.Repl.Stream == nil || stats.Repl.Stream.LagRecords != 0 {
		t.Fatalf("follower repl stats = %+v", stats.Repl)
	}
	fm := doRaw(t, p.fs, http.MethodGet, "/metrics", "admin-tok", nil)
	if fm.Code != http.StatusOK || !strings.Contains(fm.Body.String(), "\nrepl_follower_lag_records 0\n") {
		t.Fatalf("follower /metrics (%d) missing follower lag gauge", fm.Code)
	}

	identicalSearches(t, p.leader, p.fs, p.leaderLib, p.followerLib, 6)

	// Kill the leader: stop its listener and abandon its process state.
	p.leaderTS.Close()
	p.leader.pool.Close()
	if err := p.leaderLib.Close(); err != nil {
		t.Fatal(err)
	}
	p.leader, p.leaderLib = nil, nil

	// Promotion is admin-gated and idempotent.
	if code := do(t, p.fs, http.MethodPost, "/v1/admin/promote", "clin-tok", nil, nil); code != http.StatusForbidden {
		t.Fatalf("clinician promote = %d, want 403", code)
	}
	var prom struct {
		Role     string `json:"role"`
		Promoted bool   `json:"promoted"`
	}
	if code := do(t, p.fs, http.MethodPost, "/v1/admin/promote", "admin-tok", nil, &prom); code != http.StatusOK {
		t.Fatalf("promote = %d", code)
	}
	if prom.Role != "leader" || !prom.Promoted {
		t.Fatalf("promote response = %+v", prom)
	}
	if code := do(t, p.fs, http.MethodPost, "/v1/admin/promote", "admin-tok", nil, &prom); code != http.StatusOK || prom.Promoted {
		t.Fatalf("second promote = %d %+v, want idempotent no-op", code, prom)
	}
	if code := do(t, p.fs, http.MethodGet, "/readyz", "", nil, &ready); code != http.StatusOK || ready.Role != "leader" {
		t.Fatalf("promoted /readyz = %d %+v", code, ready)
	}

	// Zero acknowledged-write loss: every write the dead leader acked is
	// served by the promoted node, which now accepts writes of its own.
	if got := p.followerLib.Stats().Videos; got != n {
		t.Fatalf("promoted node has %d videos, want %d", got, n)
	}
	ingestAndWait(t, p.fs, "post-promote", 77)
	if p.followerLib.Video("post-promote") == nil {
		t.Fatal("promoted node did not persist its own write")
	}
}

// TestFollowerServesColdSearch hits a replica with a search when nothing
// ever built its index locally: replicated applies kick the rebuilder and
// the search path self-heals a cold index, so the replica answers 200
// instead of shedding with "index not built".
func TestFollowerServesColdSearch(t *testing.T) {
	p := newReplPair(t, nil, nil)
	for i := 0; i < 4; i++ {
		ingestAndWait(t, p.leader, fmt.Sprintf("cold-%02d", i), int64(i))
	}
	p.waitConverged(t)
	w := doRaw(t, p.fs, http.MethodPost, "/v1/search", "admin-tok", searchBody(1))
	if w.Code != http.StatusOK {
		t.Fatalf("cold follower search = %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), `"video"`) {
		t.Fatalf("cold follower search returned no hits: %s", w.Body.String())
	}
}

// TestLeaderFollowerTieOrderEquivalence interleaves randomized registers,
// deletes and replacements on the leader across several seeds and requires
// the follower to serve byte-identical search rankings — tie order
// included — once converged.
func TestLeaderFollowerTieOrderEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := newReplPair(t, nil, nil)
			rng := rand.New(rand.NewSource(seed))
			var live []string
			next := 0
			for op := 0; op < 12; op++ {
				switch r := rng.Float64(); {
				case r < 0.5 || len(live) == 0:
					name := fmt.Sprintf("vid-%02d", next)
					next++
					ingestAndWait(t, p.leader, name, seed*100+int64(op))
					live = append(live, name)
				case r < 0.75:
					i := rng.Intn(len(live))
					if code := do(t, p.leader, http.MethodDelete, "/v1/videos/"+live[i], "admin-tok", nil, nil); code != http.StatusOK {
						t.Fatalf("delete %s = %d", live[i], code)
					}
					live = append(live[:i], live[i+1:]...)
				default:
					i := rng.Intn(len(live))
					ingestReplaceAndWait(t, p.leader, live[i], seed*1000+int64(op))
				}
			}
			p.waitConverged(t)
			identicalSearches(t, p.leader, p.fs, p.leaderLib, p.followerLib, 6)
		})
	}
}

// TestReadyzUnseededFollower starts a follower whose leader is unreachable:
// /readyz must fail with the seeding reason until promotion flips the node
// to a leader role (at which point readiness no longer depends on
// replication).
func TestReadyzUnseededFollower(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from the first pull on

	flib := newDurableLib(t)
	t.Cleanup(func() { flib.Close() })
	f, err := repl.Start(repl.Options{
		LeaderURL: dead.URL,
		ID:        "orphan",
		Dir:       t.TempDir(),
		Applier:   flib,
		PollWait:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	fs := New(flib, Options{Tokens: testTokens(), Follower: f, LeaderURL: dead.URL})
	t.Cleanup(fs.Close)

	var ready struct {
		Role   string `json:"role"`
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if code := do(t, fs, http.MethodGet, "/readyz", "", nil, &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("unseeded follower /readyz = %d, want 503", code)
	}
	if ready.Ready || ready.Role != "follower" || !strings.Contains(ready.Reason, "not seeded") {
		t.Fatalf("unseeded /readyz body = %+v", ready)
	}
	// /healthz stays green the whole time: liveness is not readiness.
	if code := do(t, fs, http.MethodGet, "/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("unseeded follower /healthz = %d", code)
	}
	if code := do(t, fs, http.MethodPost, "/v1/admin/promote", "admin-tok", nil, nil); code != http.StatusOK {
		t.Fatalf("promote = %d", code)
	}
	if code := do(t, fs, http.MethodGet, "/readyz", "", nil, &ready); code != http.StatusOK || ready.Role != "leader" {
		t.Fatalf("promoted /readyz = %d %+v", code, ready)
	}
}

// TestWALPressureShedsIngest drives the single-node write-path shedding: a
// WAL backlog past the budget turns ingest into 503 + Retry-After, counted
// under admit_rejected_total{reason="wal_pressure"}, while reads keep
// working.
func TestWALPressureShedsIngest(t *testing.T) {
	lib := newDurableLib(t)
	t.Cleanup(func() { lib.Close() })
	s := New(lib, Options{Tokens: testTokens(), CacheSize: -1, WALPressureBytes: 1, MaxInflight: 8})
	t.Cleanup(s.Close)

	// The first ingest passes (empty WAL) and leaves >1 byte of backlog.
	ingestAndWait(t, s, "first", 1)
	req := map[string]any{"subcluster": "medicine", "saved": tinySavedResult("second", 2, 3)}
	w := doRaw(t, s, http.MethodPost, "/v1/videos", "admin-tok", req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest under WAL pressure = %d, want 503: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("WAL-pressure 503 missing Retry-After")
	}
	if !strings.Contains(w.Body.String(), "WAL backlog") {
		t.Fatalf("WAL-pressure body = %s", w.Body.String())
	}
	var stats struct {
		Admission admissionStats `json:"admission"`
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Admission.Rejected["wal_pressure"] != 1 {
		t.Fatalf("rejected = %+v, want wal_pressure 1", stats.Admission.Rejected)
	}
	m := doRaw(t, s, http.MethodGet, "/metrics", "admin-tok", nil)
	if !strings.Contains(m.Body.String(), `admit_rejected_total{reason="wal_pressure"} 1`) {
		t.Fatal("/metrics missing admit_rejected_total{reason=\"wal_pressure\"}")
	}
	// Reads are untouched; draining the backlog (a checkpoint) reopens ingest.
	if code := do(t, s, http.MethodGet, "/v1/videos", "admin-tok", nil, nil); code != http.StatusOK {
		t.Fatalf("list under WAL pressure = %d", code)
	}
	if code := do(t, s, http.MethodPost, "/v1/admin/checkpoint", "admin-tok", nil, nil); code != http.StatusOK {
		t.Fatalf("checkpoint = %d", code)
	}
	ingestAndWait(t, s, "third", 3)
}

// TestReplLagShedsIngest verifies the replication-lag backpressure: with a
// stalled follower attached and the lag budget exceeded, new ingest sheds
// with 503 under admit_rejected_total{reason="repl_lag"}; once the follower
// drains (here: detaches), writes flow again.
func TestReplLagShedsIngest(t *testing.T) {
	lib := newDurableLib(t)
	t.Cleanup(func() { lib.Close() })
	hub, err := repl.NewHub(lib.Engine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(lib, Options{Tokens: testTokens(), CacheSize: -1, ReplHub: hub, ReplLagBytes: 1, MaxInflight: 8})
	t.Cleanup(s.Close)

	// A follower attaches and then stalls: its pin accumulates everything
	// the next ingest appends.
	if _, err := lib.Engine().Attach("stalled", wal.Cursor{}); err != nil {
		t.Fatal(err)
	}
	ingestAndWait(t, s, "first", 1)
	req := map[string]any{"subcluster": "medicine", "saved": tinySavedResult("second", 2, 3)}
	w := doRaw(t, s, http.MethodPost, "/v1/videos", "admin-tok", req)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "replication lag") {
		t.Fatalf("ingest under repl lag = %d: %s", w.Code, w.Body.String())
	}
	var stats struct {
		Admission admissionStats `json:"admission"`
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Admission.Rejected["repl_lag"] != 1 {
		t.Fatalf("rejected = %+v, want repl_lag 1", stats.Admission.Rejected)
	}
	lib.Engine().Detach("stalled")
	ingestAndWait(t, s, "third", 3)
}
