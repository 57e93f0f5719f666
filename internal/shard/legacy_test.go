package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"classminer"
	"classminer/internal/store"
	"classminer/internal/wal"
)

// The legacy fixture is a data dir written by the last commit whose records
// were JSON (82ac79f): a snap-<gen>.json and JSON-envelope segments. It was
// produced by copying this file into a checkout of that commit and running
//
//	go test ./internal/shard -run TestLegacyDirConverts -write-legacy-fixture <this repo>/internal/shard/testdata/legacy-82ac79f
//
// which is why the file uses nothing the two trees do not share. Never
// regenerate it from this tree: what it pins is that bytes this build can no
// longer write still open.
var writeLegacyFixture = flag.String("write-legacy-fixture", "",
	"write the legacy data dir into this directory and stop (run from a checkout of 82ac79f)")

const legacyFixture = "testdata/legacy-82ac79f"

// legacyHistory is what the fixture's writer did, in order. The checkpoint
// falls after the a's, so they are in the snapshot; everything later is on
// the log, where it meets every case replay has: a register (b0, d*), a
// replace and a tombstone whose victims are in the snapshot (a2, a1, a4), a
// register and its tombstone both on the log (c0), a replace of a log-only
// video (b1), a replace that registers (fresh), and — written by the
// checkpoint step itself — a straddler: a3's registration a second time, as
// a record appended while the snapshot that already holds it was being cut.
var legacyHistory = []struct {
	op    string
	name  string
	seed  int64
	shots int
}{
	{"add", "a0", 1, 3}, {"add", "a1", 2, 2}, {"add", "a2", 3, 4}, {"add", "a3", 4, 3}, {"add", "a4", 5, 2}, {"add", "a5", 6, 3},
	{op: "checkpoint"},
	{"add", "b0", 7, 3}, {"add", "b1", 8, 4},
	{"replace", "a2", 103, 5},
	{"delete", "a1", 0, 0},
	{"add", "c0", 9, 2}, {"delete", "c0", 0, 0},
	{"replace", "b1", 108, 2},
	{"replace", "fresh", 10, 3},
	{"add", "d0", 11, 3}, {"add", "d1", 12, 4}, {"add", "d2", 13, 2},
	{"delete", "a4", 0, 0},
}

// applyLegacyHistory runs the history against l. checkpoint is what the
// checkpoint step does: the writer's is the real thing, a reference's nothing.
func applyLegacyHistory(t testing.TB, l *Library, checkpoint func()) {
	t.Helper()
	for _, h := range legacyHistory {
		var err error
		switch h.op {
		case "add":
			err = l.AddResult(tinyResult(t, h.name, h.seed, h.shots), "medicine")
		case "replace":
			err = l.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, h.name, h.seed, h.shots), "medicine")
		case "delete":
			err = l.DeleteVideo(h.name)
		case "checkpoint":
			checkpoint()
		}
		if err != nil {
			t.Fatalf("%s %s: %v", h.op, h.name, err)
		}
	}
}

// writeLegacyDir is the generator: meaningful only when run by the tree that
// still writes JSON.
func writeLegacyDir(t *testing.T, dir string) {
	opts := quietWAL()
	opts.SegmentBytes = 4 << 10 // a sealed segment or two behind the active one
	l, err := Recover(dir, 1, testAnalyzer(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	applyLegacyHistory(t, l, func() {
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// The straddler, byte for byte what registering a3 journaled.
		saved, err := store.EncodeResult(l.Video("a3").Result)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := json.Marshal(store.SavedLibraryEntry{Subcluster: "medicine", Result: saved})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := wal.EncodeRecord(wal.RecordRegister, "a3", entry)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Engine().Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if err := l.Close(); err != nil { // SyncAlways: writes nothing, the dir is a SIGKILL's
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "LOCK")); err != nil {
		t.Fatal(err)
	}
	inspectLegacyDir(t, dir, true)
}

// framesOf returns the first byte of every frame in the frame file at path,
// skipping the first skip frames.
func framesOf(t testing.TB, path string, skip int) (first []byte) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for i := 0; ; i++ {
		frame, err := wal.ReadRecord(br)
		if errors.Is(err, io.EOF) {
			return first
		}
		if err != nil {
			t.Fatalf("%s frame %d: %v", path, i, err)
		}
		if i >= skip {
			first = append(first, frame[0])
		}
	}
}

// inspectLegacyDir requires dir to be what its format says throughout. A
// legacy dir holds a JSON snapshot and at least two segments of JSON frames,
// the last of them not empty (a sealed and an active one); a current dir holds
// a frame snapshot, and no file but MANIFEST — and no frame of any file —
// starts with '{'.
func inspectLegacyDir(t testing.TB, dir string, legacy bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segments, snaps int
	for _, e := range entries {
		name, path := e.Name(), filepath.Join(dir, e.Name())
		switch {
		case name == "LOCK" || name == "MANIFEST":
		case strings.HasPrefix(name, "wal-"):
			frames := framesOf(t, path, 0)
			for _, b := range frames {
				if (b == '{') != legacy {
					t.Fatalf("%s holds a frame starting with %q", name, b)
				}
			}
			if legacy && len(frames) == 0 {
				t.Fatalf("%s is empty; the fixture wants records in its active segment", name)
			}
			segments++
		case legacy && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".json"):
			raw, err := os.ReadFile(path)
			if err != nil || len(raw) == 0 || raw[0] != '{' {
				t.Fatalf("%s is not a JSON snapshot (%v)", name, err)
			}
			snaps++
		case !legacy && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".ckpt"):
			for _, b := range framesOf(t, path, 1) {
				if b == '{' {
					t.Fatalf("%s holds a JSON frame", name)
				}
			}
			snaps++
		default:
			t.Fatalf("data dir holds %s", name)
		}
	}
	if snaps != 1 || segments == 0 || (legacy && segments < 2) {
		t.Fatalf("data dir holds %d snapshots and %d segments", snaps, segments)
	}
}

// TestLegacyDirConverts: a data dir written before records were binary opens,
// at any shard count, to exactly the library its history describes; that one
// boot leaves it in the current format, with nothing JSON in it but MANIFEST;
// and the next boot, which reads no JSON, returns the same answers and has
// nothing left to convert.
func TestLegacyDirConverts(t *testing.T) {
	if *writeLegacyFixture != "" {
		writeLegacyDir(t, *writeLegacyFixture)
		t.Skipf("wrote %s", *writeLegacyFixture)
	}
	inspectLegacyDir(t, legacyFixture, true)
	queries := fixedQueries(6, 12, 82)
	var want [][]classminer.SearchHit // the whole-corpus ranking, the same bytes at every count
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			reference, err := New(testAnalyzer(t), n)
			if err != nil {
				t.Fatal(err)
			}
			applyLegacyHistory(t, reference, func() {})
			if err := reference.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			whole := reference.Size() + 3

			dir := filepath.Join(t.TempDir(), "data")
			copyTree(t, legacyFixture, dir)
			boot := func(label string) (generation uint64) {
				l, err := Recover(dir, n, testAnalyzer(t), quietWAL())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				defer l.Close()
				mustSameVideos(t, label, l, reference)
				if err := l.BuildIndex(); err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{10, whole} {
					mustSameHits(t, fmt.Sprintf("%s k=%d", label, k), searchAll(t, l, admin, queries, k), searchAll(t, reference, admin, queries, k))
				}
				ws, _ := l.WALStats()
				return ws.Generation
			}
			converted := boot("first boot")
			inspectLegacyDir(t, dir, false)
			if again := boot("second boot"); again != converted {
				t.Fatalf("the second boot checkpointed again (generation %d → %d); the first left something to convert", converted, again)
			}
			inspectLegacyDir(t, dir, false)

			got := searchAll(t, reference, admin, queries, whole)
			if want == nil {
				want = got
			}
			mustSameHits(t, "across shard counts", got, want)
		})
	}
}
