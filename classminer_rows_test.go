package classminer

// One copy of each feature row: a registered shot's features live in its
// video's arena, and the shot, the library's entry and the serving index
// all read them there.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"classminer/internal/store"
)

// wideResult is tinyResult at the paper's width: 256 colour and 10 texture
// dims per shot.
func wideResult(t testing.TB, name string, seed int64, shots int) *Result {
	t.Helper()
	sv := tinySaved(name, seed, shots)
	rng := rand.New(rand.NewSource(seed))
	for i := range sv.Shots {
		sv.Shots[i].Color = make([]float64, 256)
		for j := 0; j < 20; j++ {
			sv.Shots[i].Color[rng.Intn(256)] = rng.Float64()
		}
		sv.Shots[i].Texture = make([]float64, 10)
		for j := range sv.Shots[i].Texture {
			sv.Shots[i].Texture[j] = rng.Float64()
		}
	}
	res, err := store.DecodeResult(sv)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkRowsHeldOnce fails unless every live row of lib is held once: the
// entry's Row, the shot's two halves and, while the index numbers entries
// as the library numbers rows, the serving index's row are one array.
func checkRowsHeldOnce(t *testing.T, lib *Library) {
	t.Helper()
	lib.mu.RLock()
	defer lib.mu.RUnlock()
	if lib.ixEpoch != lib.epoch {
		t.Fatal("the index no longer numbers entries as the library numbers rows")
	}
	for r, e := range lib.entries {
		if r>>6 < len(lib.dead) && lib.dead[r>>6]&(1<<uint(r&63)) != 0 {
			continue
		}
		nc := len(e.Shot.Color)
		if len(e.Row) != lib.featDim || &e.Row[0] != &e.Shot.Color[0] || &e.Row[nc] != &e.Shot.Texture[0] {
			t.Fatalf("row %d (%s shot %d): the entry's row and the shot's halves are not one array",
				r, e.VideoName, e.Shot.Index)
		}
		if ix := lib.ix.Row(r); &ix[0] != &e.Row[0] {
			t.Fatalf("row %d (%s shot %d): the index reads a copy of the row", r, e.VideoName, e.Shot.Index)
		}
	}
}

// TestRowsHeldOnce: after registration — into a fit and into the overlay of
// the index serving since — each row is held once, and deletes and a fit
// that drops the dead rows move no live row.
func TestRowsHeldOnce(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := churnLibrary(t, a, 8)
	for i := 8; i < 12; i++ { // absorbed incrementally
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("vid-%05d", i), int64(i), 25), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if lib.IndexStale() {
		t.Fatal("the index did not absorb the registrations")
	}
	checkRowsHeldOnce(t, lib)

	at := map[string]*float64{}
	lib.mu.RLock()
	for _, e := range lib.entries {
		at[fmt.Sprintf("%s/%d", e.VideoName, e.Shot.Index)] = &e.Row[0]
	}
	lib.mu.RUnlock()
	for _, name := range []string{"vid-00001", "vid-00004", "vid-00009"} {
		if err := lib.DeleteVideoAsCtx(context.Background(), admin, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if st := lib.Stats(); st.DeadRows != 0 {
		t.Fatalf("the fit left %d dead rows", st.DeadRows)
	}
	checkRowsHeldOnce(t, lib)
	lib.mu.RLock()
	defer lib.mu.RUnlock()
	for _, e := range lib.entries {
		if key := fmt.Sprintf("%s/%d", e.VideoName, e.Shot.Index); &e.Row[0] != at[key] {
			t.Fatalf("%s moved under deletes and a compacting fit", key)
		}
	}
}

// TestRegistrationAllocatesItsRows: averaged over 64 registrations into a
// current index, a registration allocates at most twice its video's row
// bytes — one arena and the bookkeeping around it — however large the
// index's incremental overlay already is.
func TestRegistrationAllocatesItsRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	const shots, batch = 25, 64
	rowBytes := uint64(shots * 266 * 8)
	next := 0
	register := func(lib *Library, res []*Result) {
		for _, r := range res {
			if err := lib.AddResult(r, "medicine"); err != nil {
				t.Fatal(err)
			}
		}
	}
	results := func(n int) []*Result {
		out := make([]*Result, n)
		for i := range out {
			out[i] = wideResult(t, fmt.Sprintf("vid-%05d", next), int64(next), shots)
			next++
		}
		return out
	}
	for _, overlay := range []int{0, 256} {
		lib := NewLibrary(a)
		register(lib, results(16))
		if err := lib.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		register(lib, results(overlay))
		res := results(batch)
		per := allocatedBy(func() { register(lib, res) }) / batch
		if lib.IndexStale() {
			t.Fatal("the index did not absorb the registrations")
		}
		t.Logf("overlay of %d videos: a registration allocates %d B for %d B of rows", overlay, per, rowBytes)
		if per > 2*rowBytes {
			t.Fatalf("overlay of %d videos: a registration allocates %d B, want at most 2 × %d",
				overlay, per, rowBytes)
		}
	}
}

// TestReplaceSameResultDuringCheckpoint: replacing a video with the Result
// it already has moves none of its rows, so the checkpoint writer, which
// reads registered shots without the lock, never races it. Run with -race.
func TestReplaceSameResultDuringCheckpoint(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := quietWAL()
	opts.Sync = SyncNever
	lib, err := Recover(t.TempDir(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	res := tinyResult(t, "vid-same", 1, 25)
	for i, r := range []*Result{res, tinyResult(t, "vid-other", 2, 25)} {
		if err := lib.AddResult(r, "medicine"); err != nil {
			t.Fatalf("registration %d: %v", i, err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	first := &res.Shots[0].Color[0]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := lib.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := lib.ReplaceResultAsCtx(context.Background(), admin, res, "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if &res.Shots[0].Color[0] != first {
		t.Fatal("a replace with the same Result moved its rows")
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	checkRowsHeldOnce(t, lib)
}

// TestFeatureRowBytes: the library counts every row it holds, live and dead,
// at its dimensionality.
func TestFeatureRowBytes(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := churnLibrary(t, a, 6)
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, "vid-00002"); err != nil {
		t.Fatal(err)
	}
	st := lib.Stats()
	if st.DeadRows != 25 || st.Shots != 125 {
		t.Fatalf("shots %d, dead rows %d; want 125 and 25", st.Shots, st.DeadRows)
	}
	if want := int64(st.Shots+st.DeadRows) * 12 * 8; st.FeatureRowBytes != want {
		t.Fatalf("FeatureRowBytes = %d, want (%d + %d) × 12 × 8 = %d",
			st.FeatureRowBytes, st.Shots, st.DeadRows, want)
	}
}

// TestSearchRefusesWrongDims: a query whose length is not the index's
// dimensionality is a typed error, from the single and the batch search
// alike — not a panic deep in the projection.
func TestSearchRefusesWrongDims(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := churnLibrary(t, a, 2)
	u := User{Name: "root", Clearance: Administrator}
	for _, q := range [][]float64{make([]float64, 9), make([]float64, 266)} {
		_, _, err := lib.SearchIntoCtx(context.Background(), nil, u, q, 5)
		if de, ok := err.(*QueryDimError); !ok || de.Got != len(q) || de.Want != 12 {
			t.Fatalf("Search with %d dims: err = %v, want a QueryDimError naming %d and 12", len(q), err, len(q))
		}
		_, _, err = lib.SearchBatch(u, [][]float64{make([]float64, 12), q}, 5)
		if de, ok := err.(*QueryDimError); !ok || de.Got != len(q) || de.Want != 12 {
			t.Fatalf("SearchBatch with %d dims: err = %v, want a QueryDimError naming %d and 12", len(q), err, len(q))
		}
	}
	if _, _, err := lib.SearchIntoCtx(context.Background(), nil, u, make([]float64, 12), 5); err != nil {
		t.Fatal(err)
	}
}
