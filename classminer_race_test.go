package classminer

// Concurrency contract of the serving layer: queries (SearchIntoCtx,
// ScenesByEvent, browsing accessors, the checkpoint writer) keep answering — from the
// current copy-on-write index snapshot — while writers mine new videos,
// register them and swap rebuilt indexes underneath. These tests are the
// reason `go test -race ./...` is a tier-1 gate; without -race they only
// prove liveness.

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"

	"classminer/internal/synth"
)

// raceVideo generates a small scripted video quickly (no corpus scaling).
func raceVideo(t testing.TB, name string, seed int64) *Video {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	script := &synth.Script{Name: name, Scenes: []synth.SceneSpec{
		synth.PresentationScene(rng, int(seed)%5, 1, 1),
		synth.DialogScene(rng, (int(seed)+1)%5, 2, 2, 3),
		synth.EstablishingScene(rng, (int(seed)+2)%5, 3),
	}}
	v, err := synth.Generate(synth.DefaultConfig(), script, seed)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLibraryConcurrentMutationDuringQueries(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLibrary(a)
	if err := addVideo(a, l, raceVideo(t, "seed-video", 31), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	query := l.Video("seed-video").Result.Shots[0].Feature()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 6; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			var dst []SearchHit
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 6 {
				case 0:
					hits, stats, err := l.SearchIntoCtx(context.Background(), nil, admin, query, 4)
					if err != nil || len(hits) == 0 || stats.DistanceOps == 0 {
						t.Errorf("search during writes: hits=%d err=%v", len(hits), err)
						return
					}
				case 5:
					var err error
					dst, _, err = l.SearchIntoCtx(context.Background(), dst[:0], admin, query, 3)
					if err != nil || len(dst) == 0 {
						t.Errorf("search into a reused buffer during writes: hits=%d err=%v", len(dst), err)
						return
					}
				case 1:
					l.ScenesByEvent(admin, EventDialog)
				case 2:
					_ = l.VideoNames()
					_ = l.Video("seed-video")
				case 3:
					_ = l.Stats()
					_ = l.Generation()
					_ = l.IndexStale()
				case 4:
					// The checkpoint writer: settledVideos, then every video
					// encoded without the lock.
					if err := l.writeCheckpoint(io.Discard); err != nil {
						t.Errorf("snapshot during writes: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Writers: mine + register new videos and swap rebuilt indexes while
	// the readers above never stop answering.
	var writers sync.WaitGroup
	for i := 0; i < 3; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			name := []string{"w-alpha", "w-beta", "w-gamma"}[i]
			if err := addVideo(a, l, raceVideo(t, name, int64(50+i)), "nursing"); err != nil {
				t.Errorf("addVideo %s: %v", name, err)
				return
			}
			if err := l.BuildIndex(); err != nil {
				t.Errorf("BuildIndex after %s: %v", name, err)
			}
			l.Protect(Rule{Concept: "nursing/other", MinClearance: Student})
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := l.Stats()
	if st.Videos != 4 {
		t.Fatalf("videos = %d, want 4", st.Videos)
	}
	if l.IndexStale() {
		t.Fatal("index stale after final BuildIndex")
	}
	if st.IndexedShots != st.Shots {
		t.Fatalf("indexed %d of %d shots", st.IndexedShots, st.Shots)
	}
	hits, _, err := l.SearchIntoCtx(context.Background(), nil, admin, query, 4)
	if err != nil || len(hits) == 0 {
		t.Fatalf("final search: hits=%d err=%v", len(hits), err)
	}
}

// TestLibraryStaleIndexKeepsServing pins the copy-on-write behaviour:
// registering a video never interrupts serving — the index absorbs the new
// entries incrementally (searchable at once, not stale), and a later full
// rebuild swaps in without a gap.
func TestLibraryStaleIndexKeepsServing(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLibrary(a)
	if err := addVideo(a, l, raceVideo(t, "first", 71), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	gen := l.Generation()
	query := l.Video("first").Result.Shots[0].Feature()
	if err := addVideo(a, l, raceVideo(t, "second", 72), "medicine"); err != nil {
		t.Fatal(err)
	}
	// Incremental maintenance absorbs the registration into the serving
	// index immediately: not stale, and the new video is searchable with no
	// BuildIndex in between.
	if l.IndexStale() {
		t.Fatal("index stale after registration (incremental insert should keep it current)")
	}
	if l.Generation() == gen {
		t.Fatal("generation did not advance on registration")
	}
	second := l.Video("second").Result.Shots[0].Feature()
	hits, _, err := l.SearchIntoCtx(context.Background(), nil, User{Clearance: Administrator}, second, 3)
	if err != nil || len(hits) == 0 || hits[0].Entry.VideoName != "second" {
		t.Fatalf("freshly registered video not searchable: hits=%v err=%v", hits, err)
	}
	if hits, _, err = l.SearchIntoCtx(context.Background(), nil, User{Clearance: Administrator}, query, 3); err != nil || len(hits) == 0 {
		t.Fatalf("index stopped serving: hits=%d err=%v", len(hits), err)
	}
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if l.IndexStale() {
		t.Fatal("index still stale after rebuild")
	}
	st := l.Stats()
	if st.IndexedShots != st.Shots {
		t.Fatalf("indexed %d of %d shots", st.IndexedShots, st.Shots)
	}
}
