package classminer

// One copy of each feature row: a registered shot's features live packed in
// its video's arena, and the shot, the library's entry and the serving index
// all read them there; no dense copy survives registration.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"classminer/internal/featrow"
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

// baseResult is a video as the benchmark's corpus holds one: 25 shots of
// the paper's 266 dims, 14 of the 256 colour and 4 of
// the 10 texture ones non-zero.
func baseResult(t testing.TB, name string, seed int64) *Result {
	t.Helper()
	sv := tinySaved(name, seed, 25)
	rng := rand.New(rand.NewSource(seed))
	row := func(n, nonZero int) []float64 {
		v := make([]float64, n)
		for _, j := range rng.Perm(n)[:nonZero] {
			v[j] = 0.5 + rng.Float64()
		}
		return v
	}
	for i := range sv.Shots {
		sv.Shots[i].Color, sv.Shots[i].Texture = row(256, 14), row(10, 4)
	}
	res, err := store.DecodeResult(sv)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// baseDir writes a data dir of snap baseResult videos in a checkpoint
// snapshot and logged more on the log behind it.
func baseDir(t testing.TB, a *Analyzer, dir string, snap, logged int) {
	t.Helper()
	opts := quietWAL()
	opts.Sync = SyncNever
	lib, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < snap+logged; i++ {
		if i == snap {
			if err := lib.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := lib.AddResult(baseResult(t, fmt.Sprintf("vid-%05d", i), int64(i+1)), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if logged == 0 {
		if err := lib.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkRowsHeldOnce fails unless every live row of lib is held once: the
// shot holds no dense feature, only its packed row; while the index numbers
// entries as the library numbers rows, the serving index reads that very
// row; and each video's rows fill an arena of their own, exactly — its
// capacity is its length.
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
		if e.Shot.Color != nil || e.Shot.Texture != nil || e.Shot.Row.IsZero() || e.Shot.Row.Len() != lib.featDim {
			t.Fatalf("row %d (%s shot %d): the shot is not held packed, and only packed", r, e.VideoName, e.Shot.Index)
		}
		if lib.ix.Row(r) != e.Shot.Row {
			t.Fatalf("row %d (%s shot %d): the index reads another row", r, e.VideoName, e.Shot.Index)
		}
	}
	owner := map[*featrow.Arena]string{}
	for name, ve := range lib.videos {
		arena, bytes := lib.entries[ve.row].Shot.Row.Arena(), 0
		for _, e := range lib.entries[ve.row : ve.row+ve.rows] {
			if e.Shot.Row.Arena() != arena {
				t.Fatalf("%s shot %d: the video's rows span arenas", name, e.Shot.Index)
			}
			bytes += e.Shot.Row.Bytes()
		}
		if bytes != arena.Bytes() {
			t.Fatalf("%s: rows of %d B in an arena of %d B", name, bytes, arena.Bytes())
		}
		// The last row's halves are views that reach the end of the arena's
		// presence words and values.
		if _, last := lib.entries[ve.row+ve.rows-1].Shot.Row.Halves(); cap(last.Words) != len(last.Words) || cap(last.Vals) != len(last.Vals) {
			t.Fatalf("%s: the arena has room for %d more presence words and %d more values", name,
				cap(last.Words)-len(last.Words), cap(last.Vals)-len(last.Vals))
		}
		if other, ok := owner[arena]; ok {
			t.Fatalf("%s and %s share an arena", name, other)
		}
		owner[arena] = name
	}
}

// TestRowsHeldOnce: after registration — into a fit and into the overlay of
// the index serving since — and after recovery, which reads the rows packed
// from a snapshot and a log, each row is held once, and deletes and a fit
// that drops the dead rows move no live row.
func TestRowsHeldOnce(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	baseDir(t, a, dir, 8, 4)
	recovered, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if err := recovered.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if got := recovered.Stats().Videos; got != 12 {
		t.Fatalf("recovered %d videos, want 12", got)
	}
	checkRowsHeldOnce(t, recovered)

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

	at := map[string]featrow.Row{}
	lib.mu.RLock()
	for _, e := range lib.entries {
		at[fmt.Sprintf("%s/%d", e.VideoName, e.Shot.Index)] = e.Shot.Row
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
		if key := fmt.Sprintf("%s/%d", e.VideoName, e.Shot.Index); e.Shot.Row != at[key] {
			t.Fatalf("%s moved under deletes and a compacting fit", key)
		}
	}
}

// TestRegistrationAllocatesItsRows: averaged over 64 registrations into a
// current index, a registration allocates at most eight times its video's
// packed row bytes — one arena and the bookkeeping around it — however large
// the index's incremental overlay already is. The bookkeeping no longer
// hides behind the rows: a packed row is ≈ 280 B here, while each row also
// costs its entry (48 B), its slots in the row tables, and its projection
// in the index overlay (16 floats, 128 B), whose slices double as they grow
// and may do so inside the 64 registrations measured. Measured: 3.3× with
// no overlay, 6.0× over a 256-video one.
func TestRegistrationAllocatesItsRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	const shots, batch = 25, 64
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
		var rowBytes uint64
		for _, r := range res {
			for _, sh := range r.Shots {
				rowBytes += uint64(sh.Row.Bytes())
			}
		}
		rowBytes /= batch
		t.Logf("overlay of %d videos: a registration allocates %d B for %d B of rows", overlay, per, rowBytes)
		if per > 8*rowBytes {
			t.Fatalf("overlay of %d videos: a registration allocates %d B, want at most 8 × %d",
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
	first := res.Shots[0].Row
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
	if res.Shots[0].Row != first {
		t.Fatal("a replace with the same Result moved its rows")
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	checkRowsHeldOnce(t, lib)
}

// TestFeatureRowBytes: the library counts the bytes its rows hold packed,
// live and dead: after registration the sum of every row's packed size;
// after deletes, the same until a fit drops the dead rows, and then exactly
// the deleted videos' bytes less.
func TestFeatureRowBytes(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := churnLibrary(t, a, 6)
	packed := func(name string) int64 {
		var n int64
		for _, sh := range lib.Video(name).Result.Shots {
			n += int64(sh.Row.Bytes())
		}
		return n
	}
	var all int64
	for i := 0; i < 6; i++ {
		all += packed(fmt.Sprintf("vid-%05d", i))
	}
	if st := lib.Stats(); st.FeatureRowBytes != all || all == 0 {
		t.Fatalf("FeatureRowBytes = %d after registration, want the rows' packed %d", st.FeatureRowBytes, all)
	}
	gone := packed("vid-00002") + packed("vid-00004")
	for _, name := range []string{"vid-00002", "vid-00004"} {
		if err := lib.DeleteVideoAsCtx(context.Background(), admin, name); err != nil {
			t.Fatal(err)
		}
	}
	st := lib.Stats()
	if st.DeadRows != 50 || st.Shots != 100 {
		t.Fatalf("shots %d, dead rows %d; want 100 and 50", st.Shots, st.DeadRows)
	}
	if st.FeatureRowBytes != all {
		t.Fatalf("FeatureRowBytes = %d with the dead rows held, want %d", st.FeatureRowBytes, all)
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if st := lib.Stats(); st.DeadRows != 0 || st.FeatureRowBytes != all-gone {
		t.Fatalf("after the fit: %d dead rows, FeatureRowBytes = %d; want 0 and %d − %d",
			st.DeadRows, st.FeatureRowBytes, all, gone)
	}
}

// TestSearchRefusesWrongDims: a query whose length is not the index's
// dimensionality is a typed error — not a panic deep in the projection.
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
	}
	if _, _, err := lib.SearchIntoCtx(context.Background(), nil, u, make([]float64, 12), 5); err != nil {
		t.Fatal(err)
	}
}
