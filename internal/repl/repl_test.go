package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"classminer"
	"classminer/internal/shard"
	"classminer/internal/store"
	"classminer/internal/wal"
)

// admin sees every subcluster, so the library's policy-gated mutations never
// refuse it.
var admin = classminer.User{Name: "root", Clearance: classminer.Administrator}

// fakeApplier records everything the follower applies, so protocol tests
// can assert ordering and resume behaviour without a full library.
type fakeApplier struct {
	mu      sync.Mutex
	recs    []wal.Record
	snaps   [][]byte // one entry per reseed; nil when the leader sent none
	reseeds int
}

func (a *fakeApplier) ApplyRecord(_ context.Context, rec *wal.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	cp := *rec
	cp.Payload = append([]byte(nil), rec.Payload...)
	a.recs = append(a.recs, cp)
	return nil
}

func (a *fakeApplier) ReseedFromSnapshot(_ context.Context, r io.Reader) (int, int, error) {
	var body []byte
	if r != nil {
		b, err := io.ReadAll(r)
		if err != nil {
			return 0, 0, err
		}
		body = b
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snaps = append(a.snaps, body)
	a.reseeds++
	return 0, 0, nil
}

func (a *fakeApplier) keys() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.recs))
	for i, r := range a.recs {
		out[i] = r.Key
	}
	return out
}

func (a *fakeApplier) reseedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reseeds
}

// newLeader opens a leader-side WAL (relaxed sync: every append immediately
// shippable, background maintenance off) and serves its Hub endpoints.
func newLeader(t testing.TB) (*wal.Engine, *httptest.Server) {
	t.Helper()
	eng, err := wal.Open(t.TempDir(), wal.Options{
		Sync:              wal.SyncNever,
		CheckpointBytes:   -1,
		CheckpointRecords: -1,
		Logf:              func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	hub, err := NewHub(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/pull", hub.ServePull)
	mux.HandleFunc("/v1/repl/snapshot", hub.ServeSnapshot)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return eng, ts
}

// appendTyped journals one typed envelope record on the leader.
func appendTyped(t testing.TB, eng *wal.Engine, kind, key string) {
	t.Helper()
	var payload []byte
	if kind != wal.RecordTombstone {
		payload = []byte(fmt.Sprintf(`{"key":%q}`, key))
	}
	frame, err := wal.EncodeRecord(kind, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Append(frame); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// followerOpts is the fast-cycling baseline every test starts from.
func followerOpts(leaderURL, dir string, applier Applier) Options {
	return Options{
		LeaderURL: leaderURL,
		ID:        "test-follower",
		Dir:       dir,
		Applier:   applier,
		PollWait:  100 * time.Millisecond,
	}
}

// TestFollowerAppliesAndResumes drives the happy path: a cold follower
// seeds (the never-checkpointed leader sends no snapshot body), applies the
// whole log in order, reports Ready, and — after a clean stop — a restart
// resumes from the durable cursor, applying only what it missed.
func TestFollowerAppliesAndResumes(t *testing.T) {
	eng, ts := newLeader(t)
	for i := 0; i < 10; i++ {
		appendTyped(t, eng, wal.RecordRegister, fmt.Sprintf("k%d", i))
	}

	dir := t.TempDir()
	fa := &fakeApplier{}
	f, err := Start(followerOpts(ts.URL, dir, fa))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial catch-up", func() bool { return len(fa.keys()) == 10 })
	want := make([]string, 10)
	for i := range want {
		want[i] = fmt.Sprintf("k%d", i)
	}
	if got := fa.keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("applied keys = %v, want %v", got, want)
	}
	if fa.reseedCount() != 1 {
		t.Fatalf("cold follower reseeded %d times, want exactly 1", fa.reseedCount())
	}
	waitFor(t, "readiness", func() bool { ok, _ := f.Ready(); return ok })
	f.Close()

	appendTyped(t, eng, wal.RecordTombstone, "k3")
	appendTyped(t, eng, wal.RecordReplace, "k4")

	// Restart on the same cursor directory with a fresh applier: only the
	// two new records may arrive, with no snapshot re-seed.
	fb := &fakeApplier{}
	f2, err := Start(followerOpts(ts.URL, dir, fb))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitFor(t, "resumed catch-up", func() bool { return len(fb.keys()) == 2 })
	if got := fb.keys(); !reflect.DeepEqual(got, []string{"k3", "k4"}) {
		t.Fatalf("resumed keys = %v, want [k3 k4]", got)
	}
	if fb.reseedCount() != 0 {
		t.Fatalf("warm restart reseeded %d times, want 0", fb.reseedCount())
	}
	// The follower publishes lag and the applied count only once the batch
	// has returned, after the applier saw its last key: wait, don't sample.
	waitFor(t, "lag to settle", func() bool {
		st := f2.Stats()
		return st.LagRecords == 0 && st.Seeded
	})
}

// TestFollowerCrashMidBatchResumes kills the follower mid-batch-apply (the
// apply hook fails permanently partway through, then the process "dies")
// and verifies the restart re-pulls from the unadvanced cursor: the fresh
// applier sees every record exactly once, in order — nothing lost to the
// aborted batch, nothing skipped past it.
func TestFollowerCrashMidBatchResumes(t *testing.T) {
	eng, ts := newLeader(t)
	want := make([]string, 6)
	for i := range want {
		want[i] = fmt.Sprintf("k%d", i)
		appendTyped(t, eng, wal.RecordRegister, want[i])
	}

	dir := t.TempDir()
	fa := &fakeApplier{}
	// The hook rejects k3 every time: the batch aborts after k0..k2 with
	// the cursor left where it was.
	f, err := start(followerOpts(ts.URL, dir, fa), func(rec *wal.Record) error {
		if rec.Key == "k3" {
			return fmt.Errorf("injected crash before %s", rec.Key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "partial batch", func() bool { return len(fa.keys()) >= 3 })
	waitFor(t, "abort surfaced", func() bool { return f.Stats().LastError != "" })
	f.Close() // the "crash": cursor on disk still predates the batch

	fb := &fakeApplier{}
	f2, err := Start(followerOpts(ts.URL, dir, fb))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitFor(t, "post-crash catch-up", func() bool { return len(fb.keys()) == 6 })
	if got := fb.keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-crash keys = %v, want %v (no duplicates, no gaps)", got, want)
	}
	if fb.reseedCount() != 0 {
		t.Fatalf("crash recovery reseeded %d times, want 0 (cursor resume)", fb.reseedCount())
	}
}

// TestFollowerReseedsOn410 pushes a detached follower's cursor behind the
// leader's horizon (checkpoint prunes the shipped segments) and verifies
// the restart converges via snapshot re-seed: the leader's checkpoint body
// arrives intact, followed by only the post-checkpoint log tail.
func TestFollowerReseedsOn410(t *testing.T) {
	eng, ts := newLeader(t)
	const snapshotBody = "leader-checkpoint-state"
	eng.SetSource(func(w io.Writer) error {
		_, err := io.WriteString(w, snapshotBody)
		return err
	})
	for i := 0; i < 4; i++ {
		appendTyped(t, eng, wal.RecordRegister, fmt.Sprintf("old%d", i))
	}

	dir := t.TempDir()
	fa := &fakeApplier{}
	f, err := Start(followerOpts(ts.URL, dir, fa))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first catch-up", func() bool { return len(fa.keys()) == 4 })
	f.Close()

	// Leader moves on without the follower: drop its pin (as a leader
	// restart would), checkpoint — pruning every shipped segment — and
	// append a fresh tail.
	eng.Detach("test-follower")
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendTyped(t, eng, wal.RecordRegister, "new0")
	appendTyped(t, eng, wal.RecordTombstone, "old2")

	fb := &fakeApplier{}
	f2, err := Start(followerOpts(ts.URL, dir, fb))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitFor(t, "reseed + tail", func() bool { return fb.reseedCount() == 1 && len(fb.keys()) == 2 })
	fb.mu.Lock()
	snap := fb.snaps[0]
	fb.mu.Unlock()
	if string(snap) != snapshotBody {
		t.Fatalf("reseed snapshot = %q, want %q", snap, snapshotBody)
	}
	if got := fb.keys(); !reflect.DeepEqual(got, []string{"new0", "old2"}) {
		t.Fatalf("post-reseed tail = %v, want [new0 old2]", got)
	}
}

// TestFollowerResumesParentCursorFile: the single stream keeps the cursor
// file of what used to be stream 0, so a one-shard follower dir written
// before there was one stream — the file below is that build's shape —
// resumes from its cursor: no reseed, nothing re-applied. Cursors of that
// build carried an "epoch" as well; a cursor is (segment, offset) now, so
// the key loads, is ignored, and is gone from the next file written.
func TestFollowerResumesParentCursorFile(t *testing.T) {
	eng, ts := newLeader(t)
	var off int64
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		appendTyped(t, eng, wal.RecordRegister, key)
		frame, err := wal.EncodeRecord(wal.RecordRegister, key, []byte(fmt.Sprintf(`{"key":%q}`, key)))
		if err != nil {
			t.Fatal(err)
		}
		off += int64(len(frame)) + wal.FrameOverhead
	}
	dir := t.TempDir()
	cursor := fmt.Sprintf("{\n  \"cursor\": {\n    \"segment\": 1,\n    \"offset\": %d,\n    \"epoch\": 7\n  },\n  \"seeded\": true\n}\n", off)
	if err := os.WriteFile(filepath.Join(dir, "repl-cursor-000.json"), []byte(cursor), 0o644); err != nil {
		t.Fatal(err)
	}
	appendTyped(t, eng, wal.RecordTombstone, "k1")
	appendTyped(t, eng, wal.RecordRegister, "k4")

	fa := &fakeApplier{}
	f, err := Start(followerOpts(ts.URL, dir, fa))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFor(t, "resume from the old cursor", func() bool { return len(fa.keys()) == 2 })
	if got := fa.keys(); !reflect.DeepEqual(got, []string{"k1", "k4"}) {
		t.Fatalf("resumed keys = %v, want [k1 k4]", got)
	}
	if fa.reseedCount() != 0 {
		t.Fatalf("resume reseeded %d times, want 0", fa.reseedCount())
	}
	f.Close() // the batch's cursor is on disk once its keys are applied and the loop has stopped
	saved, err := os.ReadFile(filepath.Join(dir, "repl-cursor-000.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(saved), "epoch") || !strings.Contains(string(saved), `"segment": 1`) {
		t.Fatalf("cursor file after the resume:\n%s", saved)
	}
}

// TestStartValidatesOptions pins the loud-failure surface of Start.
func TestStartValidatesOptions(t *testing.T) {
	base := followerOpts("http://localhost:0", t.TempDir(), &fakeApplier{})
	for name, mut := range map[string]func(*Options){
		"no leader":  func(o *Options) { o.LeaderURL = "" },
		"bad id":     func(o *Options) { o.ID = "no spaces allowed" },
		"no dir":     func(o *Options) { o.Dir = "" },
		"no applier": func(o *Options) { o.Applier = nil },
	} {
		o := base
		mut(&o)
		if f, err := Start(o); err == nil {
			f.Close()
			t.Fatalf("%s: Start accepted invalid options", name)
		}
	}
}

// tinySaved fabricates a small mined result (deterministic features, one
// group, one scene) without running the mining pipeline — the same shape
// the server tests ingest.
func tinySaved(name string, seed int64, shots int) *store.SavedResult {
	rng := rand.New(rand.NewSource(seed))
	sr := &store.SavedResult{
		Version: store.FormatVersion, VideoName: name, FPS: 25, TotalFrames: shots * 50,
	}
	feat := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	group := store.SavedGroup{Index: 0, RepShots: []int{0}}
	for i := 0; i < shots; i++ {
		sr.Shots = append(sr.Shots, store.SavedShot{
			Index: i, Start: i * 50, End: (i+1)*50 - 1, RepFrame: i * 50,
			Color: feat(8), Texture: feat(4),
		})
		group.Shots = append(group.Shots, i)
	}
	sr.Groups = []store.SavedGroup{group}
	sr.Scenes = []store.SavedScene{{Index: 0, Groups: []int{0}, RepGroup: 0}}
	return sr
}

func addSaved(t testing.TB, lib *classminer.Library, name string, seed int64) {
	t.Helper()
	res, err := store.DecodeResult(tinySaved(name, seed, 3+int(seed)%3))
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.AddResult(res, "medicine"); err != nil {
		t.Fatal(err)
	}
}

// TestRealLibraryFollowerConverges replicates between two durable
// classminer libraries end to end — registers, a delete and a replace flow
// through the leader's WAL into the follower's own journaled mutation
// paths — then crashes the follower library mid-stream and verifies the
// recovered process resumes from its cursor and converges to identical
// search results.
func TestRealLibraryFollowerConverges(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	wopts := classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1}
	leader, err := classminer.Recover(t.TempDir(), a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	hub, err := NewHub(leader.Engine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/pull", hub.ServePull)
	mux.HandleFunc("/v1/repl/snapshot", hub.ServeSnapshot)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for i := 0; i < 5; i++ {
		addSaved(t, leader, fmt.Sprintf("vid-%02d", i), int64(i))
	}

	fdir := t.TempDir()
	cursorDir := t.TempDir()
	flib, err := classminer.Recover(fdir, a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Start(followerOpts(ts.URL, cursorDir, flib))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower catch-up", func() bool { return flib.Stats().Videos == 5 })

	// Crash the follower process: stop the pull loop and close the library
	// (releasing the flock exactly as death would), mid-way through a
	// stream of further leader mutations.
	f.Close()
	if err := flib.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leader.DeleteVideoAsCtx(context.Background(), admin, "vid-01"); err != nil {
		t.Fatal(err)
	}
	res, err := store.DecodeResult(tinySaved("vid-03", 99, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.ReplaceResultAsCtx(context.Background(), admin, res, "medicine"); err != nil {
		t.Fatal(err)
	}
	addSaved(t, leader, "vid-05", 7)

	// Recover the follower library from its own WAL and resume replication
	// from the durable cursor.
	flib2, err := classminer.Recover(fdir, a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer flib2.Close()
	f2, err := Start(followerOpts(ts.URL, cursorDir, flib2))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitFor(t, "post-crash convergence", func() bool {
		return reflect.DeepEqual(flib2.VideoNames(), leader.VideoNames())
	})

	// Same entries, same incremental history — a full fit on each side must
	// rank identically, tie order included.
	if err := leader.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := flib2.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for q := 0; q < 5; q++ {
		query := make([]float64, 12)
		for i := range query {
			query[i] = rng.Float64()
		}
		lh, _, err := leader.SearchIntoCtx(context.Background(), nil, admin, query, 5)
		if err != nil {
			t.Fatal(err)
		}
		fh, _, err := flib2.SearchIntoCtx(context.Background(), nil, admin, query, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lh, fh) {
			t.Fatalf("query %d diverged:\nleader:   %+v\nfollower: %+v", q, lh, fh)
		}
	}
}

// sameVideos reports whether two libraries hold the same videos with the
// same stored results (compared as their re-encoded bytes).
func sameVideos(t testing.TB, a, b *classminer.Library) bool {
	t.Helper()
	names := a.VideoNames()
	if !reflect.DeepEqual(names, b.VideoNames()) {
		return false
	}
	encode := func(l *classminer.Library, name string) []byte {
		saved, err := store.EncodeResult(l.Video(name).Result)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(saved)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, name := range names {
		if !bytes.Equal(encode(a, name), encode(b, name)) {
			return false
		}
	}
	return true
}

// TestRealLibraryFollowerAcrossShardCounts is TestRealLibraryFollowerConverges
// between a leader and a follower booted through Recover at different shard
// counts, as classminerd -shards boots them: the count is ignored, so each
// side is one library with one log. After registers, a delete and a replace
// over the live stream, and more of each across a forced 410 reseed, both
// sides hold the same videos and rank the whole corpus identically.
func TestRealLibraryFollowerAcrossShardCounts(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	wopts := classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1}
	for _, tc := range []struct{ leaderN, followerN int }{{4, 1}, {1, 4}} {
		t.Run(fmt.Sprintf("leader-%d-follower-%d", tc.leaderN, tc.followerN), func(t *testing.T) {
			leader, err := shard.Recover(t.TempDir(), tc.leaderN, a, wopts)
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			hub, err := NewHub(leader.Engine(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// pulls counts the pull handlers still running, so the test can
			// tell when a stopped follower's last long-poll has left the leader;
			// while stale is set every pull is refused before it reaches the
			// hub, so one the stopped follower sent just before it stopped,
			// and that the server only now reads, cannot re-attach its pin.
			var pulls atomic.Int64
			var stale atomic.Bool
			mux := http.NewServeMux()
			mux.HandleFunc("/v1/repl/pull", func(w http.ResponseWriter, r *http.Request) {
				pulls.Add(1)
				defer pulls.Add(-1)
				if stale.Load() {
					writeErr(w, http.StatusServiceUnavailable, "stopped follower")
					return
				}
				hub.ServePull(w, r)
			})
			mux.HandleFunc("/v1/repl/snapshot", hub.ServeSnapshot)
			ts := httptest.NewServer(mux)
			defer ts.Close()

			shots := 0
			put := func(name string, seed int64, replace bool) {
				t.Helper()
				res, err := store.DecodeResult(tinySaved(name, seed, 3+int(seed)%3))
				if err != nil {
					t.Fatal(err)
				}
				shots += len(res.Shots) // an upper bound is all k needs
				if replace {
					err = leader.ReplaceResultAsCtx(context.Background(), admin, res, "medicine")
				} else {
					err = leader.AddResult(res, "medicine")
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			drop := func(name string) {
				t.Helper()
				if err := leader.DeleteVideoAsCtx(context.Background(), admin, name); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				put(fmt.Sprintf("vid-%02d", i), int64(i), false)
			}

			fdir := t.TempDir() // data dir and cursor dir, as in the daemon
			flib, err := shard.Recover(fdir, tc.followerN, a, wopts)
			if err != nil {
				t.Fatal(err)
			}
			defer flib.Close()
			f, err := Start(followerOpts(ts.URL, fdir, flib))
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "cold catch-up", func() bool { return sameVideos(t, leader, flib) })
			drop("vid-01")
			put("vid-03", 93, true)
			put("vid-08", 8, false)
			waitFor(t, "live stream", func() bool { return sameVideos(t, leader, flib) })

			// The leader moves on without the follower and checkpoints: the
			// segments the follower's cursor points into are pruned, so its
			// next pull is answered 410 and it reseeds from a snapshot that
			// holds every leader video. (A pull still parked at the
			// leader, or still on its way there, would re-attach the pin.)
			f.Close()
			stale.Store(true)
			waitFor(t, "the stopped follower's pull to leave the leader", func() bool { return pulls.Load() == 0 })
			leader.Engine().Detach("test-follower")
			drop("vid-02")
			put("vid-04", 94, true)
			put("vid-09", 9, false)
			if err := leader.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			stale.Store(false) // a late pull now meets the pruned horizon: 410
			drop("vid-05")
			put("vid-10", 10, false)
			f2, err := Start(followerOpts(ts.URL, fdir, flib))
			if err != nil {
				t.Fatal(err)
			}
			defer f2.Close()
			waitFor(t, "reseed + tail", func() bool { return sameVideos(t, leader, flib) })
			if got := f2.Stats().Reseeds; got != 1 {
				t.Fatalf("follower reseeded %d times after the 410, want 1", got)
			}

			if err := leader.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			if err := flib.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for q := 0; q < 5; q++ {
				query := make([]float64, 12)
				for i := range query {
					query[i] = rng.Float64()
				}
				lh, _, err := leader.SearchIntoCtx(context.Background(), nil, admin, query, shots)
				if err != nil {
					t.Fatal(err)
				}
				fh, _, err := flib.SearchIntoCtx(context.Background(), nil, admin, query, shots)
				if err != nil {
					t.Fatal(err)
				}
				if len(lh) != leader.Size() || !reflect.DeepEqual(lh, fh) {
					t.Fatalf("query %d diverged (%d and %d hits of %d shots):\nleader:   %+v\nfollower: %+v",
						q, len(lh), len(fh), leader.Size(), lh, fh)
				}
			}
		})
	}
}
