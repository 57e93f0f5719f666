package core

import (
	"math/rand"
	"sync"
	"testing"

	"classminer/internal/index"
	"classminer/internal/synth"
	"classminer/internal/vidmodel"
)

var (
	anOnce sync.Once
	an     *Analyzer
	anErr  error
)

func analyzer(t testing.TB) *Analyzer {
	t.Helper()
	anOnce.Do(func() { an, anErr = NewAnalyzer(Options{}) })
	if anErr != nil {
		t.Fatal(anErr)
	}
	return an
}

func genVideo(t testing.TB, seed int64) *vidmodel.Video {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	script := &synth.Script{Name: "core-test", Scenes: []synth.SceneSpec{
		synth.PresentationScene(rng, 0, 1, 1),
		synth.DialogScene(rng, 1, 2, 2, 3),
		synth.OperationScene(rng, 2, 3, synth.ContentSurgical, 0),
		synth.DialogScene(rng, 1, 2, 2, 3),
	}}
	v, err := synth.Generate(synth.DefaultConfig(), script, seed)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAnalyzeFullPipeline(t *testing.T) {
	a := analyzer(t)
	v := genVideo(t, 51)
	res, err := a.Analyze(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shots) < 10 {
		t.Fatalf("shots = %d", len(res.Shots))
	}
	if len(res.Groups) == 0 || len(res.Scenes) == 0 {
		t.Fatalf("groups = %d, scenes = %d", len(res.Groups), len(res.Scenes))
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clustered scenes")
	}
	if len(res.Clusters) > len(res.Scenes) {
		t.Fatal("clusters cannot exceed scenes")
	}
	if res.Events == nil {
		t.Fatal("events not mined")
	}
	if res.Skim == nil {
		t.Fatal("skim not built")
	}
	if res.Skim.FCR(1) != 1 {
		t.Fatalf("level-1 FCR = %v", res.Skim.FCR(1))
	}
	if s := res.Summary(); s == "" {
		t.Fatal("empty summary")
	}
}

func TestAnalyzeMinesSomeEventsCorrectly(t *testing.T) {
	a := analyzer(t)
	v := genVideo(t, 52)
	res, err := a.Analyze(v)
	if err != nil {
		t.Fatal(err)
	}
	// At least one mined scene label must agree with the overlapping
	// ground-truth scene (full agreement is Table 1's job, not a unit
	// test's).
	agree := 0
	for _, sc := range res.Scenes {
		first, _ := sc.FrameSpan()
		ti := v.Truth.SceneAt(first)
		if ti >= 0 && v.Truth.Scenes[ti].Event == sc.Event && sc.Event != vidmodel.EventUnknown {
			agree++
		}
	}
	if agree == 0 {
		t.Fatal("no mined event agreed with ground truth")
	}
}

func TestAnalyzeStructureOnlyMode(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true, SkipClusters: true})
	if err != nil {
		t.Fatal(err)
	}
	v := genVideo(t, 53)
	res, err := a.Analyze(v)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != nil {
		t.Fatal("events must be skipped")
	}
	if res.Clusters != nil {
		t.Fatal("clusters must be skipped")
	}
	if len(res.Scenes) == 0 {
		t.Fatal("scenes still required")
	}
}

func TestAnalyzeEmptyVideo(t *testing.T) {
	a := analyzer(t)
	if _, err := a.Analyze(&vidmodel.Video{}); err == nil {
		t.Fatal("want error on empty video")
	}
	if _, err := a.Analyze(nil); err == nil {
		t.Fatal("want error on nil video")
	}
}

func TestIndexEntriesBuildable(t *testing.T) {
	a := analyzer(t)
	v := genVideo(t, 54)
	res, err := a.Analyze(v)
	if err != nil {
		t.Fatal(err)
	}
	entries := res.IndexEntries("medicine")
	if len(entries) != len(res.Shots) {
		t.Fatalf("entries = %d, want %d", len(entries), len(res.Shots))
	}
	ix, err := index.Build(entries, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := entries[0].Shot.Feature()
	hits, stats := ix.Search(nil, q, 3, nil)
	if len(hits) == 0 {
		t.Fatal("no search results")
	}
	if stats.FloatOps <= 0 {
		t.Fatal("stats not collected")
	}
}

func TestEventOf(t *testing.T) {
	a := analyzer(t)
	v := genVideo(t, 55)
	res, err := a.Analyze(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenes) == 0 {
		t.Fatal("no scenes")
	}
	first, _ := res.Scenes[0].FrameSpan()
	if got := res.EventOf(first); got != res.Scenes[0].Event {
		t.Fatalf("EventOf = %v, want %v", got, res.Scenes[0].Event)
	}
	if got := res.EventOf(-5); got != vidmodel.EventUnknown {
		t.Fatalf("EventOf(-5) = %v", got)
	}
}
