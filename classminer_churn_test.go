package classminer

// The lifecycle contract against a reference model: whatever sequence of
// registrations, replacements, deletions and rebuilds a library went through
// — dead rows, adoptions, its own compactions — after a BuildIndex it is
// indistinguishable from a fresh library that registered the surviving
// videos in surviving order and built once. And the costs behind that: a
// delete is proportional to the video, a fit is never lost to a racing
// delete, tombstone replay is linear in the log.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"classminer/internal/store"
	"classminer/internal/trace"
	"classminer/internal/wal"
)

// churnSpec is everything that determines one registration's content.
type churnSpec struct {
	name       string
	seed       int64
	shots      int
	subcluster string
	event      int // EventKind of the video's single scene
	colorDims  int // 8 is tinySaved's own; fewer truncates both halves
}

func (sp churnSpec) result(t testing.TB) *Result {
	t.Helper()
	sv := tinySaved(sp.name, sp.seed, sp.shots)
	sv.Scenes[0].Event = sp.event
	if sp.colorDims < 8 {
		for i := range sv.Shots {
			sv.Shots[i].Color = sv.Shots[i].Color[:sp.colorDims]
			sv.Shots[i].Texture = sv.Shots[i].Texture[:sp.colorDims/2]
		}
	}
	res, err := store.DecodeResult(sv)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (sp churnSpec) dim() int { return sp.colorDims + sp.colorDims/2 }

// rebuiltFrom is the reference model: a fresh library that registers the
// survivors in order and fits once.
func rebuiltFrom(t testing.TB, a *Analyzer, survivors []churnSpec) *Library {
	t.Helper()
	ref := NewLibrary(a)
	for _, sp := range survivors {
		if err := ref.AddResult(sp.result(t), sp.subcluster); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// mustMatchRebuilt compares every read surface of lib with the model's, byte
// for byte: hits, distances, tie-breaks and per-query stats of Search and
// SearchBatch, sizes, names, and the scenes of every event category.
func mustMatchRebuilt(t testing.TB, lib, ref *Library, dim int, seed int64) {
	t.Helper()
	u := User{Name: "admin", Clearance: Administrator}
	type flat struct {
		Video string
		Shot  int
		Dist  float64
	}
	flatten := func(hits []SearchHit) []flat {
		out := make([]flat, len(hits))
		for i, h := range hits {
			out[i] = flat{h.Entry.VideoName, h.Entry.Shot.Index, h.Dist}
		}
		return out
	}
	queries := fixedQueries(6, dim, seed)
	for _, k := range []int{3, ref.Size() + 2} {
		for qi, q := range queries {
			gh, gs, gerr := lib.SearchIntoCtx(context.Background(), nil, u, q, k)
			wh, ws, werr := ref.SearchIntoCtx(context.Background(), nil, u, q, k)
			if gerr != nil || werr != nil {
				t.Fatalf("search: %v / %v", gerr, werr)
			}
			if !reflect.DeepEqual(flatten(gh), flatten(wh)) {
				t.Fatalf("k=%d query %d: hits %v, model %v", k, qi, flatten(gh), flatten(wh))
			}
			if gs != ws {
				t.Fatalf("k=%d query %d: stats %+v, model %+v", k, qi, gs, ws)
			}
		}
		gb, gbs, gerr := lib.SearchBatch(u, queries, k)
		wb, wbs, werr := ref.SearchBatch(u, queries, k)
		if gerr != nil || werr != nil {
			t.Fatalf("batch search: %v / %v", gerr, werr)
		}
		for qi := range queries {
			if !reflect.DeepEqual(flatten(gb[qi]), flatten(wb[qi])) || gbs[qi] != wbs[qi] {
				t.Fatalf("k=%d batch query %d differs from the model", k, qi)
			}
		}
	}
	if g, w := lib.Size(), ref.Size(); g != w {
		t.Fatalf("Size %d, model %d", g, w)
	}
	gst, wst := lib.Stats(), ref.Stats()
	if gst.Shots != wst.Shots || gst.IndexedShots != wst.IndexedShots || gst.Videos != wst.Videos {
		t.Fatalf("stats %+v, model %+v", gst, wst)
	}
	if gst.DeadRows != 0 || gst.IndexStale || gst.IndexStaleness != 0 {
		t.Fatalf("after a build: %d dead rows, stale=%v, staleness %v", gst.DeadRows, gst.IndexStale, gst.IndexStaleness)
	}
	if g, w := lib.VideoNames(), ref.VideoNames(); !reflect.DeepEqual(g, w) {
		t.Fatalf("videos %v, model %v", g, w)
	}
	scenes := func(l *Library, kind EventKind) []string {
		var out []string
		for _, ref := range l.ScenesByEvent(u, kind) {
			out = append(out, fmt.Sprintf("%s/%d/%d", ref.VideoName, ref.Scene.Index, len(ref.Scene.Shots())))
		}
		return out // in ScenesByEvent's own order: by video name, then scene index
	}
	for _, kind := range []EventKind{EventUnknown, EventPresentation, EventDialog, EventClinicalOperation} {
		if g, w := scenes(lib, kind), scenes(ref, kind); !reflect.DeepEqual(g, w) {
			t.Fatalf("scenes of event %v: %v, model %v", kind, g, w)
		}
	}
}

// TestChurnMatchesRebuiltLibrary drives a seeded script of registrations,
// replacements, deletions and rebuilds — mixed concepts (some the serving fit
// has no leaf for), a delete-to-empty and refill, a dimension-changing
// replacement of the sole video — and checks the library against the model
// after every BuildIndex, the row bound after every step, and that no search
// in between ever returns a shot that is no longer registered.
func TestChurnMatchesRebuiltLibrary(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	runChurnScript(t, a, NewLibrary(a), nil)
}

// TestChurnMatchesRebuiltLibraryDurable runs the same script on a durable
// library, across the checkpoint and across the crash. Checkpoint is one more
// script step and the record threshold is low enough that the background
// checkpointer fires between them, so the log is pruned — the only thing that
// ever removes acknowledged data from disk — dozens of times under the
// script. At every build, and around every eighth delete (a victim's
// registration is then usually still on the log, so the second image holds a
// register and the tombstone that supersedes it and the first holds the
// register alone), the data dir is copied as it stands, library open — the
// image a SIGKILL at that instant leaves — and the copy must recover to the
// model: same names, same stored results byte for byte, and after BuildIndex
// the same answers as a library that never touched a disk.
func TestChurnMatchesRebuiltLibraryDurable(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	c := &churnCrasher{t: t, a: a, dir: t.TempDir(), rng: rand.New(rand.NewSource(21))}
	opts := DurableOptions{
		SegmentBytes:      8 << 10, // a checkpoint prunes several segments, and leaves some
		CheckpointBytes:   -1,
		CheckpointRecords: churnCheckpointRecords,
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "wal: checkpoint generation") { // the engine's last word on a checkpoint
				c.checkpoints.Add(1)
			}
		},
	}
	if c.lib, err = Recover(c.dir, a, opts); err != nil {
		t.Fatal(err)
	}
	defer c.lib.Close()
	runChurnScript(t, a, c.lib, c)
	t.Logf("%d crash images recovered across %d checkpoints, %d of them script steps", c.images, c.checkpoints.Load(), c.manual)
	if n := c.checkpoints.Load(); n < 30 || c.manual < 10 || int(n) <= c.manual {
		t.Fatalf("%d checkpoints, %d of them script steps; want both kinds, dozens in all", n, c.manual)
	}
	if c.images < 250 {
		t.Fatalf("only %d crash images recovered", c.images)
	}
}

// churnCheckpointRecords is the durable run's background-checkpoint threshold.
const churnCheckpointRecords = 48

// churnCrasher is what the durable run adds to the churn script; a nil one —
// the in-memory run's — adds nothing.
type churnCrasher struct {
	t           *testing.T
	a           *Analyzer
	dir         string
	lib         *Library
	rng         *rand.Rand   // the durable run's own choices; the script's rng is the in-memory run's
	checkpoints atomic.Int64 // completed, background ones included
	manual      int
	images      int
}

// journaled runs one mutation — each appends exactly one record — and, when
// that record trips the threshold, waits for the background checkpoint it
// kicked to finish, so no crash image is ever copied from under a checkpoint.
func (c *churnCrasher) journaled(op func() error) error {
	if c == nil {
		return op()
	}
	ws, _ := c.lib.WALStats()
	done := c.checkpoints.Load()
	if err := op(); err != nil {
		return err
	}
	if ws.Records+1 >= churnCheckpointRecords {
		for deadline := time.Now().Add(30 * time.Second); c.checkpoints.Load() == done; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				c.t.Fatal("the background checkpoint never finished")
			}
		}
	}
	return nil
}

// step is the script's checkpoint step, taken at one step in fifty.
func (c *churnCrasher) step() {
	if c == nil || c.rng.Intn(50) != 0 {
		return
	}
	if err := c.lib.Checkpoint(); err != nil {
		c.t.Fatal(err)
	}
	c.manual++
}

// crash recovers a copy of the data dir as it stands and holds it to the
// model: order's videos and nothing else, each stored as it was registered,
// answering like a fresh library that registered them. A snapshot lists its
// videos by name, so which rows a recovered video sits at is recovery's
// business — and a fit depends on it — so the fresh library registers them in
// the recovered one's row order.
func (c *churnCrasher) crash(order []churnSpec) {
	if c == nil {
		return
	}
	t := c.t
	t.Helper()
	c.images++
	img := filepath.Join(c.dir, "..", fmt.Sprintf("image-%d", c.images))
	copyDataDir(t, c.dir, img)
	defer os.RemoveAll(img)
	rec, err := Recover(img, c.a, quietWAL())
	if err != nil {
		t.Fatalf("image %d: %v", c.images, err)
	}
	defer rec.Close()
	if got := rec.Stats().Videos; got != len(order) {
		t.Fatalf("image %d recovered %d videos %v, model holds %d", c.images, got, rec.VideoNames(), len(order))
	}
	for _, sp := range order {
		ve := rec.Video(sp.name)
		if ve == nil {
			t.Fatalf("image %d lost %q", c.images, sp.name)
		}
		got, gerr := appendEntryRecord(nil, wal.RecordRegister, sp.name, ve.Result, ve.Subcluster)
		want, werr := appendEntryRecord(nil, wal.RecordRegister, sp.name, sp.result(t), sp.subcluster)
		if gerr != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("image %d: %q recovered as a different video (%v, %v)", c.images, sp.name, gerr, werr)
		}
	}
	if len(order) == 0 {
		return
	}
	if err := rec.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	byRow := slices.Clone(order)
	rec.mu.RLock()
	sort.Slice(byRow, func(i, j int) bool { return rec.videos[byRow[i].name].row < rec.videos[byRow[j].name].row })
	rec.mu.RUnlock()
	mustMatchRebuilt(t, rec, rebuiltFrom(t, c.a, byRow), order[0].dim(), int64(c.images))
}

// copyDataDir copies the files of data dir src, as they stand, into a new
// directory dst.
func copyDataDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runChurnScript is the script. durable is the durable run's additions (lib is
// then its library) and nil for the in-memory run; the script's own choices do
// not depend on it, so both runs go through the same 2 400 steps.
func runChurnScript(t *testing.T, a *Analyzer, lib *Library, durable *churnCrasher) {
	const steps = 2400
	rng := rand.New(rand.NewSource(15))
	u := User{Name: "admin", Clearance: Administrator}
	subclusters := []string{"medicine", "nursing", "dentistry"}
	var order []churnSpec // survivors, in surviving order
	next, colorDims, builds, removes := 0, 8, 0, 0
	fresh := func(name string) churnSpec {
		next++
		return churnSpec{
			name: name, seed: int64(next), shots: 1 + rng.Intn(6),
			subcluster: subclusters[rng.Intn(len(subclusters))], event: rng.Intn(4),
			colorDims: colorDims,
		}
	}
	mutate := func(op func() error) {
		t.Helper()
		if err := durable.journaled(op); err != nil {
			t.Fatal(err)
		}
	}
	register := func() {
		sp := fresh(fmt.Sprintf("v-%04d", next))
		mutate(func() error { return lib.AddResult(sp.result(t), sp.subcluster) })
		order = append(order, sp)
	}
	remove := func(i int) {
		removes++
		if removes%8 == 0 {
			durable.crash(order) // the victim's registration, and no tombstone yet
		}
		mutate(func() error { return lib.DeleteVideoAsCtx(context.Background(), admin, order[i].name) })
		order = append(order[:i], order[i+1:]...)
		if removes%8 == 0 {
			durable.crash(order)
		}
	}
	replace := func(i int, sp churnSpec) {
		mutate(func() error { return lib.ReplaceResultAsCtx(context.Background(), admin, sp.result(t), sp.subcluster) })
		order = append(append(order[:i], order[i+1:]...), sp)
	}
	build := func() {
		if len(order) == 0 {
			if err := lib.BuildIndex(); err == nil {
				t.Fatal("BuildIndex on an empty library succeeded")
			}
			durable.crash(order)
			return
		}
		if err := lib.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		builds++
		mustMatchRebuilt(t, lib, rebuiltFrom(t, a, order), order[0].dim(), int64(builds))
		durable.crash(order)
	}
	for step := 0; step < steps; step++ {
		switch {
		case step == 800: // delete to empty, then the script refills
			for len(order) > 0 {
				remove(rng.Intn(len(order)))
			}
			if lib.Size() != 0 || lib.Stats().DeadRows != 0 {
				t.Fatalf("emptied library holds %d shots, %d dead rows", lib.Size(), lib.Stats().DeadRows)
			}
			build()
		case step == 1600: // down to one video, which changes dimensionality
			for len(order) > 1 {
				remove(rng.Intn(len(order)))
			}
			colorDims = 6
			replace(0, fresh(order[0].name))
			if _, _, err := lib.SearchIntoCtx(context.Background(), nil, u, make([]float64, 12), 3); err == nil {
				t.Fatal("an index of the old dimensionality kept serving")
			}
			build()
		default:
			switch p := rng.Float64(); {
			case len(order) == 0 || (p < 0.40 && len(order) < 48) || (p < 0.60 && len(order) < 12):
				register()
			case p < 0.66:
				remove(rng.Intn(len(order)))
			case p < 0.86:
				i := rng.Intn(len(order))
				replace(i, fresh(order[i].name))
			default:
				build()
			}
		}
		durable.step()
		// Rows never exceed twice the live shots plus one video.
		lib.mu.RLock()
		rows, live := len(lib.entries), len(lib.entries)-lib.deadRows
		lib.mu.RUnlock()
		if rows > 2*live+6 {
			t.Fatalf("step %d: %d rows for %d live shots", step, rows, live)
		}
		// Whatever the index's state, a hit is a shot registered right now.
		if lib.Stats().IndexedShots == 0 {
			continue
		}
		hits, _, err := lib.SearchIntoCtx(context.Background(), nil, u, fixedQueries(1, order[0].dim(), int64(step))[0], 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			ve := lib.Video(h.Entry.VideoName)
			if ve == nil || h.Entry.Shot.Index >= len(ve.Result.Shots) || ve.Result.Shots[h.Entry.Shot.Index] != h.Entry.Shot {
				t.Fatalf("step %d: search returned shot %d of %q, which is not registered", step, h.Entry.Shot.Index, h.Entry.VideoName)
			}
		}
	}
	if builds < 200 {
		t.Fatalf("script ran only %d builds", builds)
	}
	st := lib.Stats()
	if st.IndexFits != int64(builds) || st.IndexFitsDropped != 0 {
		t.Fatalf("%d builds: %d fits installed, %d dropped", builds, st.IndexFits, st.IndexFitsDropped)
	}
}

// TestDeleteMasksStaleIndex: a delete leaves the serving index at once even
// when that index is stale, by span while the index's IDs are the library's
// rows and by name once the library has compacted under it — no rebuild in
// either case.
func TestDeleteMasksStaleIndex(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	u := User{Name: "admin", Clearance: Administrator}
	var specs []churnSpec
	for i := 0; i < 6; i++ {
		sp := churnSpec{name: fmt.Sprintf("old-%d", i), seed: int64(i + 1), shots: 4, subcluster: "medicine", colorDims: 8}
		specs = append(specs, sp)
		if err := lib.AddResult(sp.result(t), sp.subcluster); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// A concept the fit has no leaf for: the overlay cannot absorb it.
	odd := churnSpec{name: "new-concept", seed: 99, shots: 3, subcluster: "nursing", colorDims: 8}
	if err := lib.AddResult(odd.result(t), odd.subcluster); err != nil {
		t.Fatal(err)
	}
	if !lib.IndexStale() {
		t.Fatal("a registration under an unfitted concept left the index current")
	}
	mustNotRank := func(victim churnSpec) {
		t.Helper()
		for _, sh := range victim.result(t).Shots {
			hits, _, err := lib.SearchIntoCtx(context.Background(), nil, u, sh.Feature(), 30)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				if h.Entry.VideoName == victim.name {
					t.Fatalf("stale index still ranks deleted video %q", victim.name)
				}
			}
		}
	}
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, specs[1].name); err != nil {
		t.Fatal(err)
	}
	mustNotRank(specs[1])
	// Delete until the library compacts on its own (dead rows outnumber live
	// ones): the index's IDs stop matching the rows, the mask still lands.
	lib.mu.RLock()
	epoch := lib.epoch
	lib.mu.RUnlock()
	for _, sp := range specs[2:5] {
		if err := lib.DeleteVideoAsCtx(context.Background(), admin, sp.name); err != nil {
			t.Fatal(err)
		}
		mustNotRank(sp)
	}
	lib.mu.RLock()
	compacted := lib.epoch != epoch
	lib.mu.RUnlock()
	if !compacted {
		t.Fatal("library never compacted on its own; the by-name path went untested")
	}
	if err := lib.DeleteVideoAsCtx(context.Background(), admin, specs[5].name); err != nil {
		t.Fatal(err)
	}
	mustNotRank(specs[5])
	if st := lib.Stats(); !st.IndexStale || st.IndexFits != 1 {
		t.Fatalf("deletes rebuilt or refreshed the index: %+v", st)
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	mustMatchRebuilt(t, lib, rebuiltFrom(t, a, []churnSpec{specs[0], odd}), 12, 1)
}

// TestFitSurvivesRacingDeletes: registrars and deleters run flat out while
// BuildIndexCtx is called in a loop. Every call installs its fit — none is
// dropped for a delete — the quiesced library refits to staleness 0, and no
// search at any moment returns a shot of a video whose delete was already
// acknowledged when the search began. The writers' only restraint is a
// per-fit allowance that keeps the library from halving under one fit, the
// one case in which a fit may be dropped.
func TestFitSurvivesRacingDeletes(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(a)
	const (
		base    = 160
		shots   = 5
		perFit  = 24 // churn pairs the writers may run per BuildIndexCtx call
		fits    = 40
		writers = 4
	)
	spec := func(i int) churnSpec {
		return churnSpec{name: fmt.Sprintf("r-%05d", i), seed: int64(i + 1), shots: shots, subcluster: "medicine", event: i % 2, colorDims: 8}
	}
	for i := 0; i < base; i++ {
		if err := lib.AddResult(spec(i).result(t), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	var (
		allowance atomic.Int64 // churn pairs the writers may still start
		nextName  atomic.Int64 // next video to register
		ackSeq    atomic.Int64 // orders delete acknowledgements against searches
		acked     sync.Map     // deleted video name -> ackSeq at acknowledgement
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	nextName.Store(base)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if allowance.Add(-1) < 0 {
					allowance.Add(1)
					runtime.Gosched()
					continue
				}
				i := int(nextName.Add(1)) - 1
				if err := lib.AddResult(spec(i).result(t), "medicine"); err != nil {
					t.Error(err)
					return
				}
				victim := spec(i - base).name
				for lib.Video(victim) == nil {
					runtime.Gosched() // its registrar was descheduled mid-pair
				}
				if err := lib.DeleteVideoAsCtx(context.Background(), admin, victim); err != nil {
					t.Error(err)
					return
				}
				acked.Store(victim, ackSeq.Add(1))
			}
		}()
	}
	u := User{Name: "admin", Clearance: Administrator}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := fixedQueries(16, 12, int64(r))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				began := ackSeq.Load()
				hits, _, err := lib.SearchIntoCtx(context.Background(), nil, u, queries[i%len(queries)], 20)
				if err != nil {
					t.Error(err)
					return
				}
				for _, h := range hits {
					if seq, ok := acked.Load(h.Entry.VideoName); ok && seq.(int64) <= began {
						t.Errorf("search returned %q after its delete was acknowledged", h.Entry.VideoName)
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < fits; i++ {
		before := lib.Stats()
		allowance.Store(perFit)
		if err := lib.BuildIndexCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		after := lib.Stats()
		if after.IndexFits != before.IndexFits+1 || after.IndexFitsDropped != 0 {
			t.Fatalf("fit %d: installed %d -> %d, dropped %d", i, before.IndexFits, after.IndexFits, after.IndexFitsDropped)
		}
	}
	close(stop)
	wg.Wait()
	// Every video the first fit saw must have been deleted under some fit.
	if churned := int(nextName.Load()) - base; churned < base {
		t.Fatalf("writers ran only %d churn pairs against %d fits", churned, fits)
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	st := lib.Stats()
	if lib.IndexStaleness() != 0 || st.IndexStale || st.DeadRows != 0 || st.IndexedShots != st.Shots || st.Shots != base*shots {
		t.Fatalf("after quiescence and one build: %+v", st)
	}
	var survivors []churnSpec
	for i := int(nextName.Load()) - base; i < int(nextName.Load()); i++ {
		survivors = append(survivors, spec(i))
	}
	if got := lib.VideoNames(); len(got) != base {
		t.Fatalf("%d videos survive, want %d", len(got), base)
	}
	// The survivors are known, their registration order is not (the writers
	// raced): the model to compare against is the library's own order.
	lib.mu.RLock()
	sort.Slice(survivors, func(i, j int) bool {
		return lib.videos[survivors[i].name].row < lib.videos[survivors[j].name].row
	})
	lib.mu.RUnlock()
	mustMatchRebuilt(t, lib, rebuiltFrom(t, a, survivors), 12, 7)
}

// TestFitSpanAttrs: a traced BuildIndexCtx records a "fit" span naming the
// rows it fitted and the goroutines the fit ran on.
func TestFitSpanAttrs(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := churnLibrary(t, a, 4)
	tc := trace.New(trace.Config{Slow: 0}) // keep every trace
	tr, root := tc.StartTrace("rebuild", [8]byte{1}, "")
	if err := lib.BuildIndexCtx(trace.With(context.Background(), root)); err != nil {
		t.Fatal(err)
	}
	v := tc.Finish(tr, trace.Meta{Route: "rebuild"})
	for _, sp := range v.Spans {
		if sp.Name != "fit" {
			continue
		}
		if got := sp.Attrs["entries"]; got != "100" {
			t.Errorf("fit entries = %q, want 100", got)
		}
		if got, want := sp.Attrs["workers"], fmt.Sprint(runtime.GOMAXPROCS(0)); got != want {
			t.Errorf("fit workers = %q, want %s", got, want)
		}
		return
	}
	t.Fatalf("no fit span in %+v", v.Spans)
}

// allocatedBy reports the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// churnLibrary registers n 25-shot videos and fits the index.
func churnLibrary(t testing.TB, a *Analyzer, n int) *Library {
	t.Helper()
	lib := NewLibrary(a)
	for i := 0; i < n; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("vid-%05d", i), int64(i), 25), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestFitKeepsEntryCapacity: a fit that compacts leaves the library's entry
// array no smaller than the one it replaces, so a churn cycle that outgrew
// the headroom once does not reallocate it — under an installed index that
// still aliases the old one — on every cycle after.
func TestFitKeepsEntryCapacity(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	const live = 8
	lib := churnLibrary(t, a, live)
	next := live
	// cycle registers live videos and deletes as many, then fits.
	cycle := func() {
		for i := 0; i < live; i++ {
			if err := lib.AddResult(tinyResult(t, fmt.Sprintf("vid-%05d", next), int64(next), 25), "medicine"); err != nil {
				t.Fatal(err)
			}
			if err := lib.DeleteVideoAsCtx(context.Background(), admin, fmt.Sprintf("vid-%05d", next-live)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := lib.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	cycle()
	base := &lib.entries[:1][0]
	for i := 0; i < live; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("vid-%05d", next), int64(next), 25), "medicine"); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if &lib.entries[:1][0] != base {
		t.Fatalf("a cycle's registrations reallocated the entries a fit had just sized (cap %d rows for %d)",
			cap(lib.entries), len(lib.entries))
	}
}

// TestDeleteCostIndependentOfLibrarySize: deleting one 25-shot video from a
// current index allocates about the same — and little — whether the library
// holds 2 000 rows or 16 000.
func TestDeleteCostIndependentOfLibrarySize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	cost := func(videos int) uint64 {
		lib := churnLibrary(t, a, videos)
		if err := lib.DeleteVideoAsCtx(context.Background(), admin, "vid-00003"); err != nil { // warm: first mask page
			t.Fatal(err)
		}
		n := allocatedBy(func() {
			if err := lib.DeleteVideoAsCtx(context.Background(), admin, "vid-00010"); err != nil {
				t.Fatal(err)
			}
		})
		if lib.IndexStale() {
			t.Fatal("index went stale")
		}
		return n
	}
	small, large := cost(80), cost(640)
	t.Logf("one delete allocates %d B at 2 000 rows, %d B at 16 000", small, large)
	if large > 64<<10 || small > 64<<10 {
		t.Fatalf("a delete allocated %d / %d bytes, want < 64 KiB", small, large)
	}
	if large >= 2*small {
		t.Fatalf("delete cost grows with the library: %d B at 2 000 rows, %d B at 16 000", small, large)
	}
}

// churnDir writes a data dir holding base videos and then pairs churn pairs
// on the log — register churn-i, delete the video 128 registrations back, as
// the ingest-churn workload does — and returns the surviving specs in
// registration order plus the log's size. With tombstones false the deletes
// are left out; with snapshot true the base videos are checkpointed before the
// pairs run, so the log holds the pairs alone.
func churnDir(t testing.TB, a *Analyzer, dir string, base, pairs int, tombstones, snapshot bool) ([]churnSpec, int64) {
	t.Helper()
	opts := quietWAL()
	opts.Sync = SyncNever
	lib, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	var order []churnSpec
	for i := 0; i < base+pairs; i++ {
		if snapshot && i == base {
			if err := lib.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		sp := churnSpec{name: fmt.Sprintf("vid-%05d", i), seed: int64(i + 1), shots: 25, subcluster: "medicine", colorDims: 8}
		if err := lib.AddResult(sp.result(t), sp.subcluster); err != nil {
			t.Fatal(err)
		}
		order = append(order, sp)
		if tombstones && i >= base {
			victim := len(order) - 1 - 128
			if err := lib.DeleteVideoAsCtx(context.Background(), admin, order[victim].name); err != nil {
				t.Fatal(err)
			}
			order = append(order[:victim], order[victim+1:]...)
		}
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}
	return order, dirBytes(t, dir, "wal-*.log")
}

// TestRecoverTombstoneReplayLinear: replaying a log with 1 000 churn pairs
// over 400 base videos allocates, beyond what the same registrations without
// the tombstones cost, less than three times the feature rows those
// registrations decode to — a tombstone is applied in place, it does not
// re-copy the library — and the recovered library is the model's. (The
// yardstick is what the log holds decoded, not the log's size on disk, which
// says how well rows compress rather than how much a replay has to build.)
func TestRecoverTombstoneReplayLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("1 400-video log")
	}
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	const base, pairs = 400, 1000
	churned, plain := t.TempDir(), t.TempDir()
	survivors, _ := churnDir(t, a, churned, base, pairs, true, false)
	churnDir(t, a, plain, base, pairs, false, false)
	const featureBytes = (base + pairs) * 25 * 12 * 8 // videos × shots × dims × float64
	reopen := func(dir string) (lib *Library, allocated uint64) {
		allocated = allocatedBy(func() {
			var err error
			if lib, err = Recover(dir, a, quietWAL()); err != nil {
				t.Fatal(err)
			}
		})
		t.Cleanup(func() { lib.Close() })
		return lib, allocated
	}
	_, without := reopen(plain)
	lib, with := reopen(churned)
	t.Logf("the log decodes to %d B of rows; recovery allocates %d B with the tombstones, %d B without", featureBytes, with, without)
	if with > without+3*featureBytes {
		t.Fatalf("tombstone replay allocated %d B beyond the registrations' %d B; their rows are %d B", with-without, without, featureBytes)
	}
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	mustMatchRebuilt(t, lib, rebuiltFrom(t, a, survivors), 12, 3)
}
