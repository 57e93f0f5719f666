package classminer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"classminer/internal/store"
	"classminer/internal/wal"
)

// TestDeleteVideo exercises the in-memory delete path: entries and the
// flat feature matrix shrink, the generation advances, the rebuilt index
// stops ranking the deleted shots, and unknown names are refused.
func TestDeleteVideo(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	for i := 0; i < 3; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3+i), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	gen := lib.Generation()
	shotsBefore := lib.Size()

	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "nope"); !errors.Is(err, ErrUnknownVideo) {
		t.Fatalf("deleting unknown video: %v, want ErrUnknownVideo", err)
	}
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "v1"); err != nil {
		t.Fatal(err)
	}
	if lib.Video("v1") != nil {
		t.Fatal("deleted video still registered")
	}
	if lib.Generation() == gen {
		t.Fatal("delete did not advance the generation")
	}
	if got, want := lib.Size(), shotsBefore-4; got != want {
		t.Fatalf("entries after delete = %d, want %d", got, want)
	}
	// Incremental maintenance masks the deleted shots out of the serving
	// index immediately — no rebuild, no staleness window.
	if lib.IndexStale() {
		t.Fatal("index stale after delete (incremental removal should keep it current)")
	}
	u := User{Name: "admin", Clearance: Administrator}
	searchMisses := func(victim string) {
		t.Helper()
		for _, q := range fixedQueries(8, 12, 7) {
			hits, _, err := lib.SearchIntoCtx(context.Background(), nil, u, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				if h.Entry.VideoName == victim {
					t.Fatalf("search returned deleted video %q", victim)
				}
			}
		}
	}
	searchMisses("v1")
	// A full refit over the compacted arrays answers the same way.
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	searchMisses("v1")

	// Deleting the rest empties the library: the index is dropped rather
	// than serving ghosts, and searches report it unbuilt.
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "v0"); err != nil {
		t.Fatal(err)
	}
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "v2"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.SearchIntoCtx(context.Background(), nil, u, fixedQueries(1, 12, 7)[0], 5); err == nil {
		t.Fatal("search on an emptied library succeeded")
	}
	// An emptied library no longer constrains feature dimensionality: the
	// learned dimension left with the registrations that taught it.
	odd := tinySaved("odd-dims", 9, 2)
	for i := range odd.Shots {
		odd.Shots[i].Color = odd.Shots[i].Color[:6]
		odd.Shots[i].Texture = odd.Shots[i].Texture[:3]
	}
	oddRes, err := store.DecodeResult(odd)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.AddResult(oddRes, "medicine"); err != nil {
		t.Fatalf("emptied library rejected a different dimensionality: %v", err)
	}
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "odd-dims"); err != nil {
		t.Fatal(err)
	}
	// And the library accepts registrations again.
	if err := lib.AddResult(tinyResult(t, "fresh", 42, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteVideoAsPolicyGate: DeleteVideoAsCtx refuses users the policy
// hides the video's subcluster from, atomically with the removal.
func TestDeleteVideoAsPolicyGate(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	if err := lib.AddResult(tinyResult(t, "guarded", 1, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	lib.Protect(Rule{Concept: "medicine", MinClearance: Clinician})
	nurse := User{Name: "n", Clearance: Nurse}
	if err := lib.DeleteVideoAsCtx(context.Background(), nurse, "guarded"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("nurse delete = %v, want ErrForbidden", err)
	}
	if lib.Video("guarded") == nil {
		t.Fatal("refused delete still removed the video")
	}
	doc := User{Name: "d", Clearance: Clinician}
	if err := lib.DeleteVideoAsCtx(context.Background(), doc, "guarded"); err != nil {
		t.Fatalf("clinician delete = %v", err)
	}
	if err := lib.DeleteVideoAsCtx(context.Background(), doc, "guarded"); !errors.Is(err, ErrUnknownVideo) {
		t.Fatalf("second delete = %v, want ErrUnknownVideo", err)
	}
}

// TestReplaceResultAsPolicyGate: superseding destroys the old registration,
// so ReplaceResultAsCtx is gated exactly like DeleteVideoAsCtx — on the existing
// video's subcluster, atomically with the swap. Absent names are ungated
// (nothing is destroyed).
func TestReplaceResultAsPolicyGate(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	if err := lib.AddResult(tinyResult(t, "guarded", 1, 4), "medicine"); err != nil {
		t.Fatal(err)
	}
	lib.Protect(Rule{Concept: "medicine", MinClearance: Clinician})
	nurse := User{Name: "n", Clearance: Nurse}
	if err := lib.ReplaceResultAsCtx(context.Background(), nurse, tinyResult(t, "guarded", 2, 2), "medicine"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("nurse replace = %v, want ErrForbidden", err)
	}
	if got := len(lib.Video("guarded").Result.Shots); got != 4 {
		t.Fatalf("refused replace still swapped the video (%d shots)", got)
	}
	if err := lib.ReplaceResultAsCtx(context.Background(), nurse, tinyResult(t, "fresh", 3, 2), "nursing"); err != nil {
		t.Fatalf("gated replace of an absent name = %v, want fresh registration", err)
	}
	doc := User{Name: "d", Clearance: Clinician}
	if err := lib.ReplaceResultAsCtx(context.Background(), doc, tinyResult(t, "guarded", 4, 2), "medicine"); err != nil {
		t.Fatalf("clinician replace = %v", err)
	}
	if got := len(lib.Video("guarded").Result.Shots); got != 2 {
		t.Fatalf("allowed replace did not install (%d shots)", got)
	}
}

// TestReplaceResult verifies upsert semantics: replacing an existing video
// swaps its content (shot count changes, searches see the new shots), and
// replacing an absent name registers it fresh.
func TestReplaceResult(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	if err := lib.AddResult(tinyResult(t, "proc", 1, 6), "medicine"); err != nil {
		t.Fatal(err)
	}
	if got := len(lib.Video("proc").Result.Shots); got != 6 {
		t.Fatalf("original has %d shots, want 6", got)
	}
	if err := lib.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, "proc", 2, 3), "nursing"); err != nil {
		t.Fatal(err)
	}
	ve := lib.Video("proc")
	if ve == nil || len(ve.Result.Shots) != 3 || ve.Subcluster != "nursing" {
		t.Fatalf("replacement not installed: %+v", ve)
	}
	if got := lib.Size(); got != 3 {
		t.Fatalf("entries after replace = %d, want 3", got)
	}
	// Upsert on an absent name.
	if err := lib.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, "new", 3, 2), "medicine"); err != nil {
		t.Fatal(err)
	}
	if lib.Video("new") == nil {
		t.Fatal("replace of an absent name did not register it")
	}
	// Unknown subcluster still refused.
	if err := lib.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, "bad", 4, 2), "astrology"); err == nil {
		t.Fatal("replace into an unknown subcluster succeeded")
	}
}

// TestReplaceSoleVideoNewDims: replacing the library's only video with a
// result of a different feature dimensionality must succeed, exactly like
// the delete-then-add it is equivalent to (the victim's dimensionality
// leaves with it).
func TestReplaceSoleVideoNewDims(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	if err := lib.AddResult(tinyResult(t, "solo", 1, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	u := User{Name: "admin", Clearance: Administrator}
	// A same-dim sole replace keeps the old index serving (stale), per the
	// replace contract.
	if err := lib.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, "solo", 7, 2), "medicine"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.SearchIntoCtx(context.Background(), nil, u, make([]float64, 12), 3); err != nil {
		t.Fatalf("same-dim replace stopped the old index serving: %v", err)
	}
	odd := tinySaved("solo", 2, 2)
	for i := range odd.Shots {
		odd.Shots[i].Color = odd.Shots[i].Color[:6]
		odd.Shots[i].Texture = odd.Shots[i].Texture[:3]
	}
	oddRes, err := store.DecodeResult(odd)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.ReplaceResultAsCtx(context.Background(), admin, oddRes, "medicine"); err != nil {
		t.Fatalf("replacing the sole video with new dims: %v", err)
	}
	// The dimensionality changed: the old index must NOT keep serving —
	// a 9-dim query against a 12-dim index would panic projection. The
	// index is down until the next BuildIndex, like after a delete.
	if _, _, err := lib.SearchIntoCtx(context.Background(), nil, u, make([]float64, 9), 3); err == nil {
		t.Fatal("search served an index of the wrong dimensionality")
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.SearchIntoCtx(context.Background(), nil, u, make([]float64, 9), 3); err != nil {
		t.Fatalf("search after rebuild: %v", err)
	}
	// A second 9-dim video pins the dimensionality again: now a 12-dim
	// replacement of either video must be refused (the other one still
	// constrains the library).
	other := tinySaved("other", 5, 2)
	for i := range other.Shots {
		other.Shots[i].Color = other.Shots[i].Color[:6]
		other.Shots[i].Texture = other.Shots[i].Texture[:3]
	}
	otherRes, err := store.DecodeResult(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.AddResult(otherRes, "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, "solo", 3, 2), "medicine"); err == nil {
		t.Fatal("12-dim replace accepted while another 9-dim video pins the library")
	}
}

// TestDeleteEmptyFencesStaleBuild pins the copy-on-write fence: once a
// delete empties the library, a BuildIndex snapshotted before that delete
// must be refused at the swap — otherwise it would reinstall an index of
// deleted entries that no future BuildIndex (which errors on empty) could
// ever replace.
func TestDeleteEmptyFencesStaleBuild(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	for i := 0; i < 2; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	// The version an in-flight BuildIndex would have snapshotted now.
	lib.mu.RLock()
	staleVer := lib.entriesVer
	lib.mu.RUnlock()
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "v0"); err != nil {
		t.Fatal(err)
	}
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "v1"); err != nil {
		t.Fatal(err)
	}
	lib.mu.RLock()
	defer lib.mu.RUnlock()
	if staleVer >= lib.ixVer {
		t.Fatalf("swap guard would accept a pre-delete build (staleVer %d >= ixVer %d)", staleVer, lib.ixVer)
	}
	if lib.ix != nil {
		t.Fatal("emptied library still holds an index")
	}
}

// dirBytes sums the sizes of the files in dir matching pattern.
func dirBytes(t testing.TB, dir, pattern string) int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestCompactionShrinksLog is the acceptance bar for log reclaim: register
// 1000 videos, delete or replace 50% of them, and one Checkpoint must leave
// the directory holding a snapshot of exactly the live set and an empty log
// — every byte the deletes and replacements left dead is gone — while
// Recover answers exactly like a reference library that performed the same
// mutations in memory.
func TestCompactionShrinksLog(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-video workload")
	}
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := quietWAL()
	opts.Sync = SyncNever
	opts.SegmentBytes = 32 << 10
	lib, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	reference := NewLibrary(a)

	const (
		videos   = 1000
		deletes  = 300 // victims 0..299
		replaces = 200 // victims 300..499
	)
	name := func(i int) string { return fmt.Sprintf("vid-%04d", i) }
	for i := 0; i < videos; i++ {
		res := tinyResult(t, name(i), int64(i), 2)
		if err := lib.AddResult(res, "medicine"); err != nil {
			t.Fatal(err)
		}
		if err := reference.AddResult(tinyResult(t, name(i), int64(i), 2), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < deletes; i++ {
		if err := lib.DeleteVideoAsCtx(context.Background(), admin, name(i)); err != nil {
			t.Fatal(err)
		}
		if err := reference.DeleteVideoAsCtx(context.Background(), admin, name(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := deletes; i < deletes+replaces; i++ {
		if err := lib.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, name(i), int64(10000+i), 1), "medicine"); err != nil {
			t.Fatal(err)
		}
		if err := reference.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, name(i), int64(10000+i), 1), "medicine"); err != nil {
			t.Fatal(err)
		}
	}

	before := dirBytes(t, dir, "wal-*.log")
	if err := lib.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := dirBytes(t, dir, "wal-*.log"); after != 0 {
		t.Fatalf("log holds %d bytes after the checkpoint (was %d), want 0", after, before)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if len(snaps) != 1 {
		t.Fatalf("directory holds snapshots %v, want exactly one", snaps)
	}
	f, err := os.Open(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var head wal.SnapshotHeader
	err = wal.ReadSnapshot(f, func(h wal.SnapshotHeader) error { head = h; return nil }, func([]byte) error { return nil })
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if head.Videos != videos-deletes {
		t.Fatalf("snapshot holds %d videos, want the %d live ones", head.Videos, videos-deletes)
	}
	snapBytes := dirBytes(t, dir, "snap-*.ckpt")
	t.Logf("log %d bytes -> snapshot %d bytes + empty log", before, snapBytes)
	if snapBytes >= before*6/10 {
		t.Fatalf("directory went %d -> %d bytes, want at least a 40%% shrink", before, snapBytes)
	}
	// Crash: no shutdown checkpoint (Close only releases the lock under
	// SyncNever after the final fsync — the directory is what recovery gets).
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if ws, ok := recovered.WALStats(); !ok || ws.Records != 0 {
		t.Fatalf("recovered replay saw %d log records, want none", ws.Records)
	}
	if got, want := recovered.Stats().Videos, videos-deletes; got != want {
		t.Fatalf("recovered %d videos, want %d", got, want)
	}
	if err := recovered.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := reference.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	queries := fixedQueries(6, 12, 99)
	mustSameHits(t, searchAll(t, recovered, queries, 10), searchAll(t, reference, queries, 10))
}

// TestRecoverRefusesUntypedFrame: the log has one record shape. A frame with
// no envelope — what logs held before typed records — fails recovery loudly
// as a retired format; it is never skipped and never guessed to be a
// registration.
func TestRecoverRefusesUntypedFrame(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := json.Marshal(store.SavedLibraryEntry{Subcluster: "medicine", Result: tinySaved("bare", 1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Append(frame); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	lib, err := Recover(dir, a, quietWAL())
	if err == nil {
		lib.Close()
		t.Fatal("recovered a log holding an untyped frame; want an error")
	}
	if !errors.Is(err, wal.ErrRetiredFormat) {
		t.Fatalf("recovery error = %v, want wal.ErrRetiredFormat", err)
	}
}
