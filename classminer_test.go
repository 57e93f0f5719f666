package classminer

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"classminer/internal/synth"
)

// Shared fixture: two mined corpus videos. Mining is the slow part, so the
// Results are mined once; every caller gets a library of its own over them,
// because tests protect concepts in theirs and a second run of a test must
// meet what the first met. A registered Result is never written, so the
// libraries share them.
var (
	libOnce sync.Once
	libRes  []*Result
	libErr  error
)

// admin sees every subcluster, so the policy gate of DeleteVideoAsCtx and
// ReplaceResultAsCtx never refuses it.
var admin = User{Name: "admin", Clearance: Administrator}

// addVideo mines v with a and registers the result under subcluster: the
// analyzer mines, the library indexes what was mined.
func addVideo(a *Analyzer, l *Library, v *Video, subcluster string) error {
	res, err := a.Analyze(v)
	if err != nil {
		return err
	}
	return l.AddResultCtx(context.Background(), res, subcluster)
}

// sharedLibrary builds a fresh two-video library over the shared Results.
func sharedLibrary(t testing.TB) *Library {
	t.Helper()
	libOnce.Do(func() {
		a, err := NewAnalyzer(Options{})
		if err != nil {
			libErr = err
			return
		}
		for i, name := range []string{"laparoscopy", "skin-examination"} {
			script := synth.CorpusScript(name, 0.25, 99)
			v, err := synth.Generate(synth.DefaultConfig(), script, int64(100+i))
			if err != nil {
				libErr = err
				return
			}
			res, err := a.Analyze(v)
			if err != nil {
				libErr = err
				return
			}
			libRes = append(libRes, res)
		}
	})
	if libErr != nil {
		t.Fatal(libErr)
	}
	lib := NewLibrary(nil)
	for _, res := range libRes {
		if err := lib.AddResultCtx(context.Background(), res, "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestLibraryEndToEnd(t *testing.T) {
	l := sharedLibrary(t)
	if l.Size() == 0 {
		t.Fatal("no shots indexed")
	}
	ve := l.Video("laparoscopy")
	if ve == nil {
		t.Fatal("video not registered")
	}
	if len(ve.Result.Scenes) == 0 {
		t.Fatal("no scenes mined")
	}
	if want := l.ConceptPath("medicine"); !slices.Equal(ve.Path, want) || cap(ve.Path) != len(ve.Path) {
		t.Fatalf("entry path %q (cap %d), want %q at capacity", ve.Path, cap(ve.Path), want)
	}
	// Query by example: a shot from the library should find itself.
	q := ve.Result.Shots[0].Feature()
	hits, stats, err := l.SearchIntoCtx(context.Background(), nil, User{Name: "dr", Clearance: Administrator}, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no search hits")
	}
	if stats.FloatOps <= 0 || stats.Candidates <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if hits[0].Dist > hits[len(hits)-1].Dist {
		t.Fatal("hits not ranked")
	}
}

func TestLibraryAccessControlFiltersSearch(t *testing.T) {
	l := sharedLibrary(t)
	l.Protect(Rule{Concept: "medicine/clinical operation", MinClearance: Clinician})

	ve := l.Video("laparoscopy")
	// Find a shot indexed under clinical operation.
	var clinicalQuery []float64
	for _, sc := range ve.Result.Scenes {
		if sc.Event == EventClinicalOperation && sc.ShotCount() > 0 {
			clinicalQuery = sc.Shots()[0].Feature()
			break
		}
	}
	if clinicalQuery == nil {
		t.Skip("no clinical scene mined in this corpus slice")
	}
	full, _, err := l.SearchIntoCtx(context.Background(), nil, User{Name: "dr", Clearance: Clinician}, clinicalQuery, 10)
	if err != nil {
		t.Fatal(err)
	}
	restricted, _, err := l.SearchIntoCtx(context.Background(), nil, User{Name: "kid", Clearance: Public}, clinicalQuery, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(restricted) >= len(full) {
		t.Fatalf("public user sees %d hits, clinician %d — filtering failed", len(restricted), len(full))
	}
	for _, h := range restricted {
		if h.Entry.Path[len(h.Entry.Path)-1] == "medicine/clinical operation" {
			t.Fatal("protected entry leaked to public user")
		}
	}
}

func TestLibraryScenesByEvent(t *testing.T) {
	l := sharedLibrary(t)
	total := 0
	for _, kind := range []EventKind{EventPresentation, EventDialog, EventClinicalOperation} {
		refs := l.ScenesByEvent(admin, kind)
		total += len(refs)
		for _, r := range refs {
			if r.Scene.Event != kind {
				t.Fatalf("wrong event in refs: %v", r.Scene.Event)
			}
			if r.VideoName == "" {
				t.Fatal("missing video name")
			}
		}
	}
	if total == 0 {
		t.Fatal("no event scenes found at all")
	}
	// Deny dialogs and verify the query honours it.
	l.Protect(Rule{Concept: "medicine/dialog", Deny: true})
	if refs := l.ScenesByEvent(User{Name: "x", Clearance: Administrator}, EventDialog); len(refs) != 0 {
		t.Fatalf("denied dialogs still visible: %d", len(refs))
	}
}

func TestLibraryErrors(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLibrary(a)
	if err := l.BuildIndex(); err == nil {
		t.Fatal("want error building empty index")
	}
	if _, _, err := l.SearchIntoCtx(context.Background(), nil, User{}, nil, 1); err == nil {
		t.Fatal("want error searching unbuilt index")
	}
	rng := rand.New(rand.NewSource(1))
	script := &synth.Script{Name: "v", Scenes: []synth.SceneSpec{synth.EstablishingScene(rng, 0, 1)}}
	v, err := synth.Generate(synth.DefaultConfig(), script, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := addVideo(a, l, v, "astrology"); err == nil {
		t.Fatal("want error for unknown subcluster")
	}
	if err := addVideo(a, l, v, "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := addVideo(a, l, v, "medicine"); err == nil {
		t.Fatal("want error for duplicate video")
	}
}

func TestSkimLevelsFromLibrary(t *testing.T) {
	l := sharedLibrary(t)
	ve := l.Video("skin-examination")
	sk := ve.Result.Skim
	var fcrs []float64
	for lvl := SkimLevel1; lvl <= SkimLevel4; lvl++ {
		fcrs = append(fcrs, sk.FCR(lvl))
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(fcrs))) {
		t.Fatalf("FCR not monotone across levels: %v", fcrs)
	}
}

// TestMinedLibraryEntryRoundTrip carries a mined library through the binary
// entry a durable library keeps — the checkpoint writer's snapshot, read back
// by a reseed — and requires the copy to answer queries without re-mining and
// every mined event to survive.
func TestMinedLibraryEntryRoundTrip(t *testing.T) {
	l := sharedLibrary(t)
	var snap bytes.Buffer
	if err := l.writeCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	loaded := NewLibrary(a)
	if _, _, err := loaded.ReseedFromSnapshot(context.Background(), &snap); err != nil {
		t.Fatal(err)
	}
	if err := loaded.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != l.Size() {
		t.Fatalf("loaded size %d, want %d", loaded.Size(), l.Size())
	}
	if !slices.Equal(loaded.VideoNames(), l.VideoNames()) {
		t.Fatalf("videos %v, want %v", loaded.VideoNames(), l.VideoNames())
	}
	ve := loaded.Video("laparoscopy")
	if ve == nil || len(ve.Result.Scenes) == 0 {
		t.Fatal("loaded video incomplete")
	}
	q := ve.Result.Shots[0].Feature()
	hits, _, err := loaded.SearchIntoCtx(context.Background(), nil, admin, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("loaded index returned nothing")
	}
	events := 0
	for _, name := range l.VideoNames() {
		orig, back := l.Video(name).Result.Scenes, loaded.Video(name).Result.Scenes
		if len(back) != len(orig) {
			t.Fatalf("%s: %d scenes, want %d", name, len(back), len(orig))
		}
		for i, sc := range orig {
			if back[i].Event != sc.Event {
				t.Fatalf("%s scene %d: event %v, want %v", name, i, back[i].Event, sc.Event)
			}
			if sc.Event != EventUnknown {
				events++
			}
		}
	}
	if events == 0 {
		t.Fatal("the mined library has no events to carry")
	}
}

func TestLibraryConcurrentAccess(t *testing.T) {
	l := sharedLibrary(t)
	ve := l.Video("laparoscopy")
	q := ve.Result.Shots[0].Feature()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch i % 4 {
				case 0:
					if _, _, err := l.SearchIntoCtx(context.Background(), nil, User{Clearance: Administrator}, q, 5); err != nil {
						errs <- err
						return
					}
				case 1:
					l.ScenesByEvent(User{Clearance: Administrator}, EventClinicalOperation)
				case 2:
					_ = l.VideoNames()
					_ = l.Size()
				case 3:
					l.Protect(Rule{Concept: "medicine/other", MinClearance: Student})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
