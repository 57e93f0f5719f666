package classminer

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"classminer/internal/store"
	"classminer/internal/wal"
)

// tinyResult fabricates a small mined result (a few shots in one group and
// scene) with deterministic pseudo-random features. It goes through the
// same SavedResult decode path a journal replay uses, so recovered and
// reference libraries are built from identical inputs without paying for
// the mining pipeline 10k times over.
func tinyResult(t testing.TB, name string, seed int64, shots int) *Result {
	t.Helper()
	res, err := store.DecodeResult(tinySaved(name, seed, shots))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func tinySaved(name string, seed int64, shots int) *store.SavedResult {
	rng := rand.New(rand.NewSource(seed))
	sr := &store.SavedResult{
		Version:     store.FormatVersion,
		VideoName:   name,
		FPS:         25,
		TotalFrames: shots * 50,
	}
	feat := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	group := store.SavedGroup{Index: 0}
	for i := 0; i < shots; i++ {
		sr.Shots = append(sr.Shots, store.SavedShot{
			Index: i, Start: i * 50, End: (i+1)*50 - 1, RepFrame: i * 50,
			Color: feat(8), Texture: feat(4),
		})
		group.Shots = append(group.Shots, i)
	}
	group.RepShots = []int{0}
	sr.Groups = []store.SavedGroup{group}
	sr.Scenes = []store.SavedScene{{Index: 0, Groups: []int{0}, RepGroup: 0}}
	return sr
}

// quietWAL keeps recovery tests silent and auto-checkpointing out of the
// way unless a test opts in.
func quietWAL() DurableOptions {
	return DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1}
}

func searchAll(t testing.TB, l *Library, queries [][]float64, k int) [][]SearchHit {
	t.Helper()
	u := User{Name: "admin", Clearance: Administrator}
	out := make([][]SearchHit, len(queries))
	for i, q := range queries {
		hits, _, err := l.SearchIntoCtx(context.Background(), nil, u, q, k)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = hits
	}
	return out
}

func mustSameHits(t testing.TB, got, want [][]SearchHit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("answered %d queries, want %d", len(got), len(want))
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("query %d: %d hits vs %d", qi, len(got[qi]), len(want[qi]))
		}
		for hi := range want[qi] {
			g, w := got[qi][hi], want[qi][hi]
			if g.Entry.VideoName != w.Entry.VideoName || g.Entry.Shot.Index != w.Entry.Shot.Index || g.Dist != w.Dist {
				t.Fatalf("query %d hit %d: (%s,%d,%g) vs (%s,%d,%g)", qi, hi,
					g.Entry.VideoName, g.Entry.Shot.Index, g.Dist,
					w.Entry.VideoName, w.Entry.Shot.Index, w.Dist)
			}
		}
	}
}

// fixedQueries derives a deterministic query set from the libraries' own
// feature space.
func fixedQueries(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Float64()
		}
		out[i] = q
	}
	return out
}

// TestRecoverEquivalence is the snapshot+replay equivalence check: a
// durable library abandoned without any shutdown save must recover to
// answer exactly like an in-memory reference library that registered the
// same results. Exercises both the WAL-only boot (no checkpoint ever) and
// the snapshot+tail layout (checkpoint mid-stream).
func TestRecoverEquivalence(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"wal-only", "checkpoint+tail"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			durable, err := Recover(dir, a, quietWAL())
			if err != nil {
				t.Fatal(err)
			}
			reference := NewLibrary(a)
			const videos = 12
			for i := 0; i < videos; i++ {
				name := fmt.Sprintf("vid-%03d", i)
				if err := durable.AddResult(tinyResult(t, name, int64(i), 3+i%4), "medicine"); err != nil {
					t.Fatal(err)
				}
				if err := reference.AddResult(tinyResult(t, name, int64(i), 3+i%4), "medicine"); err != nil {
					t.Fatal(err)
				}
				if mode == "checkpoint+tail" && i == videos/2 {
					if err := durable.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Crash: no shutdown save, no checkpoint. Close here only
			// releases the data-dir lock the way process death would —
			// under SyncAlways it writes nothing, so the on-disk state is
			// byte-identical to a SIGKILL and everything must come back
			// from the data dir alone.
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}

			recovered, err := Recover(dir, a, quietWAL())
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			if got, want := recovered.Stats().Videos, reference.Stats().Videos; got != want {
				t.Fatalf("recovered %d videos, want %d", got, want)
			}
			if err := recovered.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			if err := reference.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			queries := fixedQueries(10, 12, 99)
			mustSameHits(t, searchAll(t, recovered, queries, 5), searchAll(t, reference, queries, 5))
		})
	}
}

// TestRecoverDeleteReplaceEquivalence drives random interleavings of
// add/delete/replace through a durable library and an in-memory reference,
// checkpoints somewhere in the middle of the stream, crashes, and demands
// the recovered library answer exactly like the reference — the lifecycle
// analogue of TestRecoverEquivalence. Register records that straddle the
// checkpoint must dedupe, and tombstone/replace records that straddle it
// must win over the snapshot copy.
func TestRecoverDeleteReplaceEquivalence(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opts := quietWAL()
			opts.SegmentBytes = 4 << 10 // several segments per run
			durable, err := Recover(dir, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			reference := NewLibrary(a)

			var names []string
			next := 0
			const ops = 60
			ckptAt := 20 + rng.Intn(20)
			for op := 0; op < ops; op++ {
				switch {
				case len(names) == 0 || rng.Float64() < 0.5:
					name := fmt.Sprintf("vid-%03d", next)
					next++
					res := int64(next)
					if err := durable.AddResult(tinyResult(t, name, res, 2+rng.Intn(3)), "medicine"); err != nil {
						t.Fatal(err)
					}
					if err := reference.AddResult(tinyResult(t, name, res, len(durable.Video(name).Result.Shots)), "medicine"); err != nil {
						t.Fatal(err)
					}
					names = append(names, name)
				case rng.Float64() < 0.5:
					victim := rng.Intn(len(names))
					name := names[victim]
					if err := durable.DeleteVideoAsCtx(context.Background(), admin, name); err != nil {
						t.Fatal(err)
					}
					if err := reference.DeleteVideoAsCtx(context.Background(), admin, name); err != nil {
						t.Fatal(err)
					}
					names = append(names[:victim], names[victim+1:]...)
				default:
					name := names[rng.Intn(len(names))]
					res := int64(1000 + op)
					shots := 2 + rng.Intn(3)
					if err := durable.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, name, res, shots), "medicine"); err != nil {
						t.Fatal(err)
					}
					if err := reference.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, name, res, shots), "medicine"); err != nil {
						t.Fatal(err)
					}
				}
				if op == ckptAt {
					if err := durable.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Crash without any shutdown save (see TestRecoverEquivalence).
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}

			recovered, err := Recover(dir, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			gotNames, wantNames := recovered.VideoNames(), reference.VideoNames()
			if fmt.Sprint(gotNames) != fmt.Sprint(wantNames) {
				t.Fatalf("recovered videos %v, want %v", gotNames, wantNames)
			}
			for _, name := range wantNames {
				g, w := recovered.Video(name), reference.Video(name)
				if len(g.Result.Shots) != len(w.Result.Shots) {
					t.Fatalf("video %q recovered with %d shots, want %d (stale replacement?)",
						name, len(g.Result.Shots), len(w.Result.Shots))
				}
			}
			if len(wantNames) == 0 {
				return
			}
			if err := recovered.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			if err := reference.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			queries := fixedQueries(8, 12, seed)
			mustSameHits(t, searchAll(t, recovered, queries, 5), searchAll(t, reference, queries, 5))
		})
	}
}

// TestRecoverTombstoneStraddlesCheckpoint pins the "delete wins" rule: a
// video registered before a checkpoint lives in the snapshot; its
// tombstone (and a replaced sibling's replace record) land on the log
// tail. Replay loads the snapshot copy and must still apply both.
func TestRecoverTombstoneStraddlesCheckpoint(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lib, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Both mutations straddle the checkpoint: victims in the snapshot,
	// records on the tail.
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := lib.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, "v2", 55, 5), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Video("v1") != nil {
		t.Fatal("tombstone lost: checkpointed registration resurrected")
	}
	if got := recovered.Stats().Videos; got != 3 {
		t.Fatalf("recovered %d videos, want 3", got)
	}
	ve := recovered.Video("v2")
	if ve == nil || len(ve.Result.Shots) != 5 {
		t.Fatalf("replace record lost: v2 = %+v", ve)
	}
}

// TestRecoverEmptyDir boots a durable library from a directory that has
// never seen a record: zero snapshots, an empty log.
func TestRecoverEmptyDir(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := Recover(t.TempDir(), a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	if !lib.Durable() {
		t.Fatal("recovered library is not durable")
	}
	if st := lib.Stats(); st.Videos != 0 || st.WAL == nil || st.WAL.Records != 0 {
		t.Fatalf("empty-dir stats = %+v", st)
	}
	if err := lib.AddResult(tinyResult(t, "first", 1, 4), "medicine"); err != nil {
		t.Fatal(err)
	}
	if st := lib.Stats(); st.WAL.Records != 1 {
		t.Fatalf("WAL lag after one registration = %+v", st.WAL)
	}
}

// TestRecoverSkipsCheckpointStraddlers registers, checkpoints, and crashes
// without closing: the final registrations live on the log tail while
// earlier ones are in the snapshot. A record present in both (appended
// while a checkpoint snapshot was cut) must register once, not error.
func TestRecoverDuplicateTolerance(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lib, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration is refused and, critically, never journaled:
	// a WAL record of a failed registration would resurrect it on replay.
	if err := lib.AddResult(tinyResult(t, "v0", 0, 3), "medicine"); !errors.Is(err, ErrDuplicateVideo) {
		t.Fatalf("duplicate AddResult: %v, want ErrDuplicateVideo", err)
	}
	if err := lib.AddResult(tinyResult(t, "tail", 77, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Stats().Videos; got != 5 {
		t.Fatalf("recovered %d videos, want 5", got)
	}
	if recovered.Video("tail") == nil {
		t.Fatal("log-tail registration lost")
	}
}

// TestRecoverTornJournalTail cuts the last journal record mid-frame (the
// on-disk signature of a crash mid-append) and verifies recovery keeps
// every earlier registration and drops only the torn one.
func TestRecoverTornJournalTail(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lib, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	recovered, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Stats().Videos; got != 2 {
		t.Fatalf("recovered %d videos, want 2 (torn third dropped)", got)
	}
	if recovered.Video("v2") != nil {
		t.Fatal("torn registration resurrected")
	}
	// The repaired log accepts the registration again.
	if err := recovered.AddResult(tinyResult(t, "v2", 2, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverHealsDamagedChain corrupts a sealed mid-chain WAL segment and
// verifies Recover checkpoints past the damage, so registrations made
// after the damaged recovery survive the *next* crash instead of being
// stranded behind the broken segment.
func TestRecoverHealsDamagedChain(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := quietWAL()
	opts.SegmentBytes = 1 << 10 // force several segments
	lib, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[16] ^= 0x01
	if err := os.WriteFile(segs[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	healed, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	partial := healed.Stats().Videos
	if partial == 0 || partial >= 8 {
		t.Fatalf("damaged recovery yielded %d videos, want a strict prefix", partial)
	}
	if ws, _ := healed.WALStats(); ws.Generation == 0 {
		t.Fatal("Recover did not checkpoint past the damaged chain")
	}
	if err := healed.AddResult(tinyResult(t, "post-damage", 99, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	// Crash again (Close releases the dir lock; writes nothing — see
	// TestRecoverEquivalence).
	if err := healed.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.Stats().Videos; got != partial+1 {
		t.Fatalf("second recovery has %d videos, want %d", got, partial+1)
	}
	if again.Video("post-damage") == nil {
		t.Fatal("post-damage registration stranded behind the broken segment")
	}
}

// BenchmarkRecover10k measures crash recovery of 10_000 journaled
// registrations (the ISSUE 3 acceptance bar is < 2s). Setup journals the
// registrations once with fsync off (bulk load); each iteration then
// replays the whole log into a fresh library.
func BenchmarkRecover10k(b *testing.B) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	opts := quietWAL()
	opts.Sync = SyncNever
	opts.SegmentBytes = 64 << 20
	lib, err := Recover(dir, a, opts)
	if err != nil {
		b.Fatal(err)
	}
	const n = 10_000
	for i := 0; i < n; i++ {
		if err := lib.AddResult(tinyResult(b, fmt.Sprintf("vid-%05d", i), int64(i), 2), "medicine"); err != nil {
			b.Fatal(err)
		}
	}
	if err := lib.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recovered, err := Recover(dir, a, opts)
		if err != nil {
			b.Fatal(err)
		}
		if got := recovered.Stats().Videos; got != n {
			b.Fatalf("recovered %d videos, want %d", got, n)
		}
		recovered.Close()
	}
}

// frameOffsets returns where each frame of a frame file starts: a frame is an
// 8-byte header, length first, and its payload.
func frameOffsets(file []byte) (offsets []int) {
	for off := 0; off < len(file); off += 8 + int(binary.LittleEndian.Uint32(file[off:])) {
		offsets = append(offsets, off)
	}
	return offsets
}

// TestRecoverSnapshotAllOrNothing: damage on the log's tail means "stop
// cleanly, the prefix is the state"; damage in the checkpoint snapshot may
// not. A flipped byte, a dropped last frame, a cut inside a frame and an
// empty file each fail the boot with the snapshot's name — none recovers as
// a smaller library — while the same data dir with its snapshot intact and
// its log tail torn still opens.
func TestRecoverSnapshotAllOrNothing(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	lib, err := Recover(src, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := lib.AddResult(tinyResult(t, "tail", 9, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(src, "snap-*"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %v", snaps)
	}
	snapName := filepath.Base(snaps[0])
	whole, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	frames := frameOffsets(whole)
	if len(frames) != 7 {
		t.Fatalf("snapshot holds %d frames, want a header and 6 videos", len(frames))
	}
	reopen := func(file string, content []byte) (*Library, error) {
		dir := t.TempDir()
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == file {
				raw = content
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return Recover(dir, a, quietWAL())
	}
	flipped := bytes.Clone(whole)
	flipped[frames[3]+40] ^= 0x04
	for name, content := range map[string][]byte{
		"byte flipped mid-file": flipped,
		"last frame dropped":    whole[:frames[6]],
		"cut inside a frame":    whole[:frames[4]+11],
		"header only":           whole[:frames[1]],
		"empty file":            {},
	} {
		lib, err := reopen(snapName, content)
		if err == nil {
			n := lib.Stats().Videos
			lib.Close()
			t.Fatalf("%s: recovered %d videos from a damaged snapshot", name, n)
		}
		if !strings.Contains(err.Error(), snapName) {
			t.Fatalf("%s: %v, want the error to name %s", name, err, snapName)
		}
	}

	// The log keeps its licence: the same cut applied to its tail is a crash
	// mid-append, and the prefix is the state.
	segs, _ := filepath.Glob(filepath.Join(src, "wal-*.log"))
	last := segs[len(segs)-1]
	tail, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	lib, err = reopen(filepath.Base(last), tail[:len(tail)-5])
	if err != nil {
		t.Fatalf("torn log tail: %v", err)
	}
	defer lib.Close()
	if got := lib.Stats().Videos; got != 6 || lib.Video("tail") != nil {
		t.Fatalf("torn log tail recovered %d videos, want the 6 checkpointed ones", got)
	}
}

// TestNonFiniteFeatureRefused: a NaN or infinite feature value is refused
// where dimensions are — before anything is staged — with the same error on
// a durable and an in-memory library, through register, replace and a
// follower's apply alike, and nothing reaches the log: the binary record
// carries any float64, so no serialiser will catch it later.
func TestNonFiniteFeatureRefused(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	durable, err := Recover(t.TempDir(), a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	poisoned := func(name string, v float64) *Result {
		res := tinyResult(t, name, 7, 3)
		res.Shots[1].Texture[2] = v
		return res
	}
	said := map[string]string{}
	for label, lib := range map[string]*Library{"durable": durable, "in-memory": NewLibrary(a)} {
		if err := lib.AddResult(tinyResult(t, "held", 1, 3), "medicine"); err != nil {
			t.Fatal(err)
		}
		before := lib.Stats()
		var refusals []string
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			// What a leader running the same code could never have shipped, but
			// a follower must not trust: the poisoned video as a log record.
			rec, err := appendEntryRecord(nil, wal.RecordReplace, "held", poisoned("held", v), "medicine")
			if err != nil {
				t.Fatal(err)
			}
			shipped, err := wal.DecodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			for op, err := range map[string]error{
				"register": lib.AddResult(poisoned("fresh", v), "medicine"),
				"replace":  lib.ReplaceResultAsCtx(context.Background(), admin, poisoned("held", v), "medicine"),
				"apply":    lib.ApplyRecord(context.Background(), &shipped),
			} {
				if err == nil || !strings.Contains(err.Error(), "non-finite feature value") {
					t.Fatalf("%s %s of %v: %v, want the non-finite refusal", label, op, v, err)
				}
				refusals = append(refusals, err.Error())
			}
		}
		after := lib.Stats()
		if after.Videos != 1 || after.Generation != before.Generation {
			t.Fatalf("%s: a refused registration changed the library: %+v -> %+v", label, before, after)
		}
		if before.WAL != nil && *after.WAL != *before.WAL {
			t.Fatalf("a refused registration reached the log: %+v -> %+v", *before.WAL, *after.WAL)
		}
		sort.Strings(refusals)
		said[label] = fmt.Sprintf("%q", slices.Compact(refusals))
	}
	if said["durable"] != said["in-memory"] {
		t.Fatalf("the refusal depends on durability:\n%s\n%s", said["durable"], said["in-memory"])
	}

	// The same record on a data dir's log, which recovery reads packed.
	dir := t.TempDir()
	eng, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := appendEntryRecord(nil, wal.RecordRegister, "held", poisoned("held", math.NaN()), "medicine")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := Recover(dir, a, quietWAL())
	if err == nil {
		recovered.Close()
		t.Fatal("recovered a log holding a NaN feature value")
	}
	if !errors.Is(err, ErrInvalidResult) || !strings.Contains(err.Error(), "non-finite feature value") {
		t.Fatalf("recovery error = %v, want the non-finite refusal", err)
	}
}

// TestRecoverSkipsSupersededRecords: replay installs what survives, not what
// was ever written. A record that a later tombstone or replace for its key
// supersedes is passed over at read time — recovery says how many on one log
// line — and the recovered library is the one a full replay builds: same
// videos, same contents, same answers.
func TestRecoverSkipsSupersededRecords(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := quietWAL()
	var logged []string
	opts.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	lib, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	reference := NewLibrary(a)
	both := func(op func(l *Library) error) {
		t.Helper()
		for _, l := range []*Library{lib, reference} {
			if err := op(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	add := func(name string, seed int64) {
		t.Helper()
		both(func(l *Library) error { return l.AddResult(tinyResult(t, name, seed, 3), "medicine") })
	}
	replace := func(name string, seed int64) {
		t.Helper()
		both(func(l *Library) error {
			return l.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, name, seed, 4), "medicine")
		})
	}
	del := func(name string) {
		t.Helper()
		both(func(l *Library) error { return l.DeleteVideoAsCtx(context.Background(), admin, name) })
	}
	add("kept", 1)
	add("snapped", 2)
	if err := lib.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// On the log, in order; † marks the records a later one supersedes.
	add("a", 3)      // †
	add("b", 4)      // †
	replace("a", 5)  // † (a is replaced again)
	del("b")         //   b's last word...
	add("b", 6)      //   ...and a registration after it: both live
	add("c", 7)      // †
	del("c")         //   live: the tombstone settles c
	replace("a", 8)  //   live
	del("snapped")   //   live: its victim is in the snapshot
	add("d", 9)      //   live
	replace("e", 10) // † an upsert that registered...
	del("e")         // † ...deleted...
	add("e", 11)     // † ...registered again...
	replace("e", 12) //   ...and replaced: only this one is live
	const records, superseded = 14, 7
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	logged = nil
	recovered, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if ws, _ := recovered.WALStats(); ws.Records != records {
		t.Fatalf("recovery saw %d records, want %d", ws.Records, records)
	}
	want := fmt.Sprintf("classminer: replay skipped %d of %d log records", superseded, records)
	if !slices.ContainsFunc(logged, func(line string) bool { return strings.HasPrefix(line, want) }) {
		t.Fatalf("recovery logged %q, want a line starting %q", logged, want)
	}
	if got, want := fmt.Sprint(recovered.VideoNames()), fmt.Sprint(reference.VideoNames()); got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
	for _, name := range reference.VideoNames() {
		if g, w := len(recovered.Video(name).Result.Shots), len(reference.Video(name).Result.Shots); g != w {
			t.Fatalf("%s recovered with %d shots, want %d", name, g, w)
		}
	}
	for _, l := range []*Library{recovered, reference} {
		if err := l.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	queries := fixedQueries(8, 12, 5)
	mustSameHits(t, searchAll(t, recovered, queries, 40), searchAll(t, reference, queries, 40))
}

// TestRecoverRewrittenDirRefusesOldCursors: an ordinary reboot of a
// directory takes no checkpoint and leaves every segment where it was, so a
// replication cursor a follower minted before it — at the head of any live
// segment or at the end of the log — still attaches, and the follower resumes
// instead of re-seeding. The name dates from a compactions=3 case, in which
// a MANIFEST counting in-place rewrites of sealed segments booted through a
// checkpoint that refused such cursors; that MANIFEST is now refused outright
// (see TestRetiredFormatsRefused in internal/shard).
func TestRecoverRewrittenDirRefusesOldCursors(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("compactions=0", func(t *testing.T) {
		dir := t.TempDir()
		opts := quietWAL()
		opts.SegmentBytes = 1 << 10 // the tail spans several segments
		lib, err := Recover(dir, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		reference := NewLibrary(a)
		for i := 0; i < 12; i++ {
			for _, l := range []*Library{lib, reference} {
				if err := l.AddResult(tinyResult(t, fmt.Sprintf("v%02d", i), int64(i+1), 3), "medicine"); err != nil {
					t.Fatal(err)
				}
			}
			if i == 3 { // a snapshot and a tail, as a directory in service has
				if err := lib.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, l := range []*Library{lib, reference} {
			if err := l.DeleteVideoAsCtx(context.Background(), admin, "v05"); err != nil {
				t.Fatal(err)
			}
		}
		// Cursors a follower of the old process could be holding: the head of
		// each live segment and the end of the log.
		eng := lib.Engine()
		tail, err := eng.Attach("old", wal.Cursor{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, next, err := eng.ReadFrom("old", tail, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if next == tail {
				break
			}
			tail = next
		}
		ws, _ := lib.WALStats()
		var cursors []wal.Cursor
		for seg := tail.Segment - uint64(ws.Segments) + 1; seg <= tail.Segment; seg++ {
			cursors = append(cursors, wal.Cursor{Segment: seg})
		}
		cursors = append(cursors, tail)
		if len(cursors) < 4 {
			t.Fatalf("the log spans %d segments, want several", ws.Segments)
		}
		if err := lib.Close(); err != nil {
			t.Fatal(err)
		}

		booted, err := Recover(dir, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer booted.Close()
		if g, w := fmt.Sprint(booted.VideoNames()), fmt.Sprint(reference.VideoNames()); g != w {
			t.Fatalf("booted with %s, want %s", g, w)
		}
		for _, l := range []*Library{booted, reference} {
			if err := l.BuildIndex(); err != nil {
				t.Fatal(err)
			}
		}
		queries := fixedQueries(6, 12, 9)
		mustSameHits(t, searchAll(t, booted, queries, 40), searchAll(t, reference, queries, 40))
		for _, cur := range cursors {
			if _, err := booted.Engine().Attach("old", cur); err != nil {
				t.Fatalf("attach at pre-boot cursor %+v: %v", cur, err)
			}
		}
		if bws, _ := booted.WALStats(); bws.Generation != ws.Generation {
			t.Fatalf("the reboot checkpointed (generation %d -> %d)", ws.Generation, bws.Generation)
		}
	})
}

// TestReseedIsAllOrNothing: a follower converging onto a leader's snapshot
// tombstones what the snapshot lacks before it installs what it holds, so it
// must know the snapshot is whole before it touches anything. A stream cut
// short — even exactly between two frames — changes nothing; the whole one
// converges.
func TestReseedIsAllOrNothing(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := Recover(t.TempDir(), a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i := 0; i < 4; i++ {
		if err := leader.AddResult(tinyResult(t, fmt.Sprintf("l%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(leader.Engine().SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	follower := NewLibrary(a)
	for _, name := range []string{"l0", "stale"} {
		if err := follower.AddResult(tinyResult(t, name, 77, 2), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	frames := frameOffsets(snap)
	for name, cut := range map[string]int{"between frames": frames[len(frames)-1], "inside a frame": len(snap) - 3, "to nothing": 0} {
		if _, _, err := follower.ReseedFromSnapshot(context.Background(), bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("a snapshot cut %s reseeded", name)
		}
		if got := fmt.Sprint(follower.VideoNames()); got != "[l0 stale]" {
			t.Fatalf("a snapshot cut %s left the follower holding %s", name, got)
		}
	}
	installed, removed, err := follower.ReseedFromSnapshot(context.Background(), bytes.NewReader(snap))
	if err != nil || installed != 4 || removed != 1 {
		t.Fatalf("reseed = %d installed, %d removed, %v; want 4, 1", installed, removed, err)
	}
	if got, want := fmt.Sprint(follower.VideoNames()), fmt.Sprint(leader.VideoNames()); got != want {
		t.Fatalf("follower holds %s, leader %s", got, want)
	}
	if got := len(follower.Video("l0").Result.Shots); got != 3 {
		t.Fatalf("l0 kept its stale content (%d shots)", got)
	}
}

// TestRecoveredAnswersIgnoreHistory: which hits a search returns is a
// function of the live rows, not of the order they were registered in. A
// durable library registers jittered videos against their name order (a
// checkpoint writes, and recovery replays, them in name order, so the
// recovered library holds its rows in another order), fits, answers a
// fixed probe set, checkpoints and is abandoned; the recovered library fits
// again and must answer the probes byte for byte as before. The features
// are continuous random draws, so no two distances tie exactly and the
// order of tied hits (a separate matter) never enters.
func TestRecoveredAnswersIgnoreHistory(t *testing.T) {
	dir := t.TempDir()
	lib, err := Recover(dir, nil, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	const videos = 30
	rng := rand.New(rand.NewSource(13))
	for _, i := range rng.Perm(videos) {
		sub := []string{"medicine", "nursing", "dentistry"}[i%3]
		if err := lib.AddResultCtx(context.Background(), tinyResult(t, fmt.Sprintf("vid-%03d", i), int64(i), 4+i%9), sub); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	queries := fixedQueries(40, 12, 1017)
	before := map[int][][]SearchHit{}
	for _, k := range []int{1, 10, 40} {
		before[k] = searchAll(t, lib, queries, k)
	}
	if err := lib.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(); err != nil { // SyncAlways: what a SIGKILL leaves
		t.Fatal(err)
	}
	recovered, err := Recover(dir, nil, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if err := recovered.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 10, 40} {
		mustSameHits(t, searchAll(t, recovered, queries, k), before[k])
	}
}
