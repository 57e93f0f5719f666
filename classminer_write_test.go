package classminer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"classminer/internal/wal"
)

// TestCheckpointWaitsForJournaledMutation pins the ordering between the
// write path and the checkpoint source: a registration whose record is on
// the log but not yet applied holds the writer lock, and a checkpoint that
// cuts the log past that record must wait for the apply before it lists the
// videos. Were the list taken without the lock, the snapshot would miss the
// video while the prune removed the segment holding its record, and the
// acknowledged registration would be gone after recovery. Searches meanwhile
// answer without it: they never wait on a writer.
func TestCheckpointWaitsForJournaledMutation(t *testing.T) {
	dir := t.TempDir()
	lib, err := Recover(dir, nil, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { lib.Close() }()
	if err := lib.AddResultCtx(context.Background(), tinyResult(t, "base", 1, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	journaled, release := make(chan struct{}), make(chan struct{})
	lib.afterAppend = func() {
		close(journaled)
		<-release
	}
	regErr := make(chan error, 1)
	go func() {
		regErr <- lib.AddResultCtx(context.Background(), tinyResult(t, "held", 2, 3), "medicine")
	}()
	<-journaled

	// Held between its append and its apply: invisible, and searches answer.
	if names := lib.VideoNames(); slices.Contains(names, "held") {
		t.Fatalf("an unapplied registration is visible: %v", names)
	}
	searchAll(t, lib, fixedQueries(4, 12, 7), 3)

	segs := lib.Engine().Stats().Segments
	cpErr := make(chan error, 1)
	go func() { cpErr <- lib.Checkpoint() }()
	// Wait for the checkpoint's cut, which lands the held record's segment
	// behind it; the source runs next.
	for deadline := time.Now().Add(10 * time.Second); lib.Engine().Stats().Segments == segs; {
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint never cut the log")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-cpErr:
		t.Fatalf("the checkpoint finished (err %v) while a journaled registration was unapplied", err)
	case <-time.After(100 * time.Millisecond):
	}

	lib.afterAppend = nil
	close(release)
	if err := <-regErr; err != nil {
		t.Fatal(err)
	}
	if err := <-cpErr; err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	lib, err = Recover(dir, nil, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.VideoNames(); !slices.Equal(got, []string{"base", "held"}) {
		t.Fatalf("recovered %v, want [base held]", got)
	}
}

// TestFailedAppendLeavesLibraryUnchanged: a register, replace or delete
// whose journal append fails is refused before anything is applied — the
// video list, every entry, the generation and every search answer are what
// they were.
func TestFailedAppendLeavesLibraryUnchanged(t *testing.T) {
	lib, err := Recover(t.TempDir(), nil, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := lib.AddResultCtx(ctx, tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 4), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndexCtx(ctx); err != nil {
		t.Fatal(err)
	}
	queries := fixedQueries(8, 12, 3)
	names, gen, hits := lib.VideoNames(), lib.Generation(), searchAll(t, lib, queries, 5)
	entries := map[string]*VideoEntry{}
	for _, n := range names {
		entries[n] = lib.Video(n)
	}

	if err := lib.Engine().Close(); err != nil {
		t.Fatal(err)
	}
	for what, op := range map[string]func() error{
		"register": func() error { return lib.AddResultCtx(ctx, tinyResult(t, "v9", 9, 4), "medicine") },
		"replace":  func() error { return lib.ReplaceResultAsCtx(ctx, admin, tinyResult(t, "v1", 19, 4), "medicine") },
		"delete":   func() error { return lib.DeleteVideoAsCtx(ctx, admin, "v2") },
	} {
		if err := op(); !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("%s over a closed journal: err = %v, want wal.ErrClosed", what, err)
		}
		if got := lib.VideoNames(); !slices.Equal(got, names) {
			t.Fatalf("after a failed %s: videos %v, want %v", what, got, names)
		}
		for n, ve := range entries {
			if lib.Video(n) != ve {
				t.Fatalf("after a failed %s: entry %q changed", what, n)
			}
		}
		if g := lib.Generation(); g != gen {
			t.Fatalf("after a failed %s: generation %d, want %d", what, g, gen)
		}
		mustSameHits(t, searchAll(t, lib, queries, 5), hits)
	}
}
