package classminer

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// TestIncrementalGoldenEquivalence is the ISSUE 5 acceptance check: a
// library whose index was maintained incrementally (registrations inserted,
// a deletion masked — no refit) answers queries identically to the same
// library after a full BuildIndex refit, while the churn stays inside the
// staleness budget. Identity means the same (video, shot) ranking; the
// distances agree to floating-point tolerance because the 12-dim features
// make every PCA a full-rank rotation.
func TestIncrementalGoldenEquivalence(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	const base = 8
	for i := 0; i < base; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("base-%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	// Churn within budget: one new video in, one old video out.
	if err := lib.AddResult(tinyResult(t, "delta-0", 100, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "base-2"); err != nil {
		t.Fatal(err)
	}
	if lib.IndexStale() {
		t.Fatal("index stale after incremental insert+delete")
	}
	if s := lib.IndexStaleness(); s <= 0 || s > 0.3 {
		t.Fatalf("staleness = %v, want within (0, 0.3]", s)
	}
	if lib.RebuildNeeded(0.5) {
		t.Fatal("RebuildNeeded(0.5) true though churn is within budget")
	}
	if !lib.RebuildNeeded(0.1) {
		t.Fatal("RebuildNeeded(0.1) false though churn exceeds that budget")
	}

	u := User{Name: "admin", Clearance: Administrator}
	queries := fixedQueries(12, 12, 99)
	// k larger than the library ranks every live entry — full deterministic
	// ordering, nothing left to the hash shells.
	k := lib.Size() + 5
	before := searchAll(t, lib, queries, k)

	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if got := lib.IndexStaleness(); got != 0 {
		t.Fatalf("staleness after refit = %v, want 0", got)
	}
	after := searchAll(t, lib, queries, k)

	for qi := range queries {
		if len(before[qi]) != len(after[qi]) {
			t.Fatalf("query %d: %d hits incremental vs %d rebuilt", qi, len(before[qi]), len(after[qi]))
		}
		for hi := range before[qi] {
			b, r := before[qi][hi], after[qi][hi]
			if b.Entry.VideoName != r.Entry.VideoName || b.Entry.Shot.Index != r.Entry.Shot.Index {
				t.Fatalf("query %d hit %d: incremental (%s,%d) vs rebuilt (%s,%d)", qi, hi,
					b.Entry.VideoName, b.Entry.Shot.Index, r.Entry.VideoName, r.Entry.Shot.Index)
			}
			if math.Abs(b.Dist-r.Dist) > 1e-9 {
				t.Fatalf("query %d hit %d: dist %g vs %g", qi, hi, b.Dist, r.Dist)
			}
		}
		for _, h := range before[qi] {
			if h.Entry.VideoName == "base-2" {
				t.Fatal("incremental index still ranks the deleted video")
			}
		}
	}

	// Smaller k (hash-shell regime) still serves without error after the
	// refit; candidate recall at low k is the hash approximation's own
	// property, tested in internal/index.
	if _, _, err := lib.SearchIntoCtx(context.Background(), nil, u, queries[0], 3); err != nil {
		t.Fatal(err)
	}
}

// TestLibrarySearchIntoZeroAlloc: the policy-filtered library search path
// reuses caller scratch end to end — after inserts, steady state allocates
// nothing per query.
func TestLibrarySearchIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	for i := 0; i < 6; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("za-%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := lib.AddResult(tinyResult(t, "za-extra", 50, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	u := User{Name: "admin", Clearance: Administrator}
	q := fixedQueries(1, 12, 5)[0]
	dst := make([]SearchHit, 0, 16)
	for i := 0; i < 8; i++ { // warm the scratch pool
		dst, _, err = lib.SearchIntoCtx(context.Background(), dst[:0], u, q, 10)
		if err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		dst, _, _ = lib.SearchIntoCtx(context.Background(), dst[:0], u, q, 10)
	})
	if avg != 0 {
		t.Fatalf("Library.SearchIntoCtx allocates %.1f per run, want 0", avg)
	}
}

// TestIncrementalRegistrationImmediatelySearchable pins the write-path
// guarantee: after AddResult on an indexed library, the new video's own
// shots are its top self-query answers with no BuildIndex call.
func TestIncrementalRegistrationImmediatelySearchable(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	for i := 0; i < 4; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("seed-%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	u := User{Name: "admin", Clearance: Administrator}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("live-%d", i)
		res := tinyResult(t, name, int64(200+i), 3)
		if err := lib.AddResult(res, "medicine"); err != nil {
			t.Fatal(err)
		}
		hits, _, err := lib.SearchIntoCtx(context.Background(), nil, u, res.Shots[0].Feature(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].Entry.VideoName != name {
			t.Fatalf("video %q not searchable immediately after registration", name)
		}
	}
	// Replacement swaps content in the serving index immediately too.
	repl := tinyResult(t, "live-0", 999, 3)
	if err := lib.ReplaceResultAsCtx(context.Background(), admin, repl, "medicine"); err != nil {
		t.Fatal(err)
	}
	if lib.IndexStale() {
		t.Fatal("index stale after replace")
	}
	hits, _, err := lib.SearchIntoCtx(context.Background(), nil, u, repl.Shots[0].Feature(), 1)
	if err != nil || len(hits) == 0 || hits[0].Entry.VideoName != "live-0" {
		t.Fatalf("replacement not searchable: hits=%v err=%v", hits, err)
	}
	if hits[0].Entry.Shot.Start != repl.Shots[0].Start {
		t.Fatal("search still answers from the replaced content")
	}
}
