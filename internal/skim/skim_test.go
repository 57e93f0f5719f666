package skim

import (
	"strings"
	"testing"

	"classminer/internal/feature"
	"classminer/internal/vidmodel"
)

// buildFixture assembles a small mined structure: 12 shots, 4 groups,
// 2 scenes, 1 cluster.
func buildFixture(t *testing.T) (*Skim, []*vidmodel.Shot) {
	t.Helper()
	var shots []*vidmodel.Shot
	for i := 0; i < 12; i++ {
		c := make([]float64, feature.ColorBins)
		c[i%8] = 1
		shots = append(shots, &vidmodel.Shot{
			Index: i, Start: i * 30, End: (i + 1) * 30,
			Color: c, Texture: make([]float64, feature.TextureDims),
		})
	}
	mkGroup := func(idx int, ss ...*vidmodel.Shot) *vidmodel.Group {
		return &vidmodel.Group{Index: idx, Shots: ss, RepShots: ss[:1]}
	}
	groups := []*vidmodel.Group{
		mkGroup(0, shots[0], shots[1], shots[2]),
		mkGroup(1, shots[3], shots[4], shots[5]),
		mkGroup(2, shots[6], shots[7], shots[8]),
		mkGroup(3, shots[9], shots[10], shots[11]),
	}
	scenes := []*vidmodel.Scene{
		{Index: 0, Groups: groups[:2], RepGroup: groups[0], Event: vidmodel.EventDialog},
		{Index: 1, Groups: groups[2:], RepGroup: groups[2], Event: vidmodel.EventClinicalOperation},
	}
	clusters := []*vidmodel.ClusteredScene{
		{Index: 0, Scenes: scenes, RepGroup: groups[0]},
	}
	s, err := Build(shots, groups, scenes, clusters, 12*30)
	if err != nil {
		t.Fatal(err)
	}
	return s, shots
}

func TestLevelsMonotoneGranularity(t *testing.T) {
	s, shots := buildFixture(t)
	if got := len(s.Shots(Level1)); got != len(shots) {
		t.Fatalf("level 1 shots = %d, want %d", got, len(shots))
	}
	for l := Level1; l < Level4; l++ {
		if len(s.Shots(l)) < len(s.Shots(l+1)) {
			t.Fatalf("level %d has fewer shots than level %d", l, l+1)
		}
	}
	if len(s.Shots(Level4)) == 0 {
		t.Fatal("level 4 must not be empty")
	}
}

func TestFCRMonotone(t *testing.T) {
	s, _ := buildFixture(t)
	if fcr := s.FCR(Level1); fcr != 1 {
		t.Fatalf("level 1 FCR = %v, want 1 (all shots)", fcr)
	}
	for l := Level1; l < Level4; l++ {
		if s.FCR(l) < s.FCR(l+1) {
			t.Fatalf("FCR must not increase with level: %v vs %v", s.FCR(l), s.FCR(l+1))
		}
	}
	if s.FCR(Level4) <= 0 {
		t.Fatal("level 4 FCR must be positive")
	}
}

func TestShotsSortedByTime(t *testing.T) {
	s, _ := buildFixture(t)
	for l := Level1; l <= Level4; l++ {
		shots := s.Shots(l)
		for i := 1; i < len(shots); i++ {
			if shots[i].Start < shots[i-1].Start {
				t.Fatalf("level %d not in playback order", l)
			}
		}
	}
}

func TestLevelClamping(t *testing.T) {
	s, _ := buildFixture(t)
	if len(s.Shots(Level(0))) != len(s.Shots(Level1)) {
		t.Fatal("level 0 must clamp to 1")
	}
	if len(s.Shots(Level(9))) != len(s.Shots(Level4)) {
		t.Fatal("level 9 must clamp to 4")
	}
}

func TestColorBar(t *testing.T) {
	s, _ := buildFixture(t)
	bar := s.ColorBar(36)
	if len(bar) != 36 {
		t.Fatalf("bar width = %d", len(bar))
	}
	if !strings.Contains(bar, "D") || !strings.Contains(bar, "C") {
		t.Fatalf("bar %q must show both event categories", bar)
	}
	// First half is the dialog scene.
	if bar[0] != 'D' {
		t.Fatalf("bar starts with %q, want D", bar[0])
	}
	if s.ColorBar(0) != "" {
		t.Fatal("zero width must render empty")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, nil, nil, nil, 0); err == nil {
		t.Fatal("want error on no shots")
	}
}

func TestDescribe(t *testing.T) {
	s, _ := buildFixture(t)
	d := s.Describe()
	if !strings.Contains(d, "level 4") || !strings.Contains(d, "FCR") {
		t.Fatalf("describe output: %q", d)
	}
}

// TestShotCompression checks |skim shots| / |all shots| at the two ends.
func TestShotCompression(t *testing.T) {
	s, _ := buildFixture(t)
	ratio := func(l Level) float64 { return float64(len(s.Shots(l))) / float64(s.TotalShots) }
	if got := ratio(Level1); got != 1 {
		t.Fatalf("level 1 shot compression = %v", got)
	}
	if got := ratio(Level4); got >= 0.5 {
		t.Fatalf("level 4 shot compression = %v, want < 0.5", got)
	}
}
