package vidmodel

import (
	"testing"
	"testing/quick"
)

func TestFrameSetAt(t *testing.T) {
	f := NewFrame(4, 3)
	f.Set(1, 2, 10, 20, 30)
	r, g, b := f.At(1, 2)
	if r != 10 || g != 20 || b != 30 {
		t.Fatalf("At = (%d,%d,%d)", r, g, b)
	}
}

func TestFrameAtClamps(t *testing.T) {
	f := NewFrame(2, 2)
	f.Set(1, 1, 9, 9, 9)
	r, _, _ := f.At(99, 99)
	if r != 9 {
		t.Fatalf("clamped At = %d, want 9", r)
	}
	r, _, _ = f.At(-5, -5)
	if r != 0 {
		t.Fatalf("clamped At = %d, want 0", r)
	}
}

func TestFrameSetOutOfRangeIgnored(t *testing.T) {
	f := NewFrame(2, 2)
	f.Set(-1, 0, 1, 1, 1) // must not panic
	f.Set(0, 5, 1, 1, 1)
	for _, p := range f.Pix {
		if p != 0 {
			t.Fatal("out-of-range Set must not write")
		}
	}
}

func TestFrameClone(t *testing.T) {
	f := NewFrame(2, 2)
	f.Set(0, 0, 1, 2, 3)
	c := f.Clone()
	c.Set(0, 0, 9, 9, 9)
	if r, _, _ := f.At(0, 0); r != 1 {
		t.Fatal("Clone must not alias the original")
	}
}

func TestGrayWeights(t *testing.T) {
	f := NewFrame(1, 1)
	f.Set(0, 0, 255, 255, 255)
	if g := f.Gray(0, 0); g < 254.9 || g > 255.1 {
		t.Fatalf("Gray(white) = %v, want 255", g)
	}
}

func TestAudioSlice(t *testing.T) {
	a := &AudioTrack{SampleRate: 100, Samples: make([]float64, 1000)}
	fps := 10.0
	if got := a.SamplesPerFrame(fps); got != 10 {
		t.Fatalf("SamplesPerFrame = %d, want 10", got)
	}
	if got := len(a.Slice(2, 5, fps)); got != 30 {
		t.Fatalf("Slice len = %d, want 30", got)
	}
	if a.Slice(90, 80, fps) != nil {
		t.Fatal("inverted slice should be nil")
	}
	if got := len(a.Slice(95, 200, fps)); got != 50 {
		t.Fatalf("clamped slice len = %d, want 50", got)
	}
}

func TestAudioSamplesPerFrameZeroFPS(t *testing.T) {
	a := &AudioTrack{SampleRate: 100}
	if a.SamplesPerFrame(0) != 0 {
		t.Fatal("zero fps must yield zero samples per frame")
	}
}

func TestShotFeatureConcat(t *testing.T) {
	s := &Shot{Color: []float64{1, 2}, Texture: []float64{3}}
	f := s.Feature()
	if len(f) != 3 || f[0] != 1 || f[2] != 3 {
		t.Fatalf("Feature = %v", f)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestGroupSpans(t *testing.T) {
	g := &Group{Shots: []*Shot{
		{Index: 3, Start: 30, End: 40},
		{Index: 4, Start: 40, End: 55},
	}}
	ff, fl := g.FrameSpan()
	if ff != 30 || fl != 55 {
		t.Fatalf("FrameSpan = (%d,%d)", ff, fl)
	}
	if g.Duration() != 25 {
		t.Fatalf("Duration = %d", g.Duration())
	}
}

func TestGroupEmptySpans(t *testing.T) {
	g := &Group{}
	if f, l := g.FrameSpan(); f != 0 || l != 0 {
		t.Fatal("empty group FrameSpan should be zero")
	}
}

func TestSceneAccessors(t *testing.T) {
	s := &Scene{Groups: []*Group{
		{Shots: []*Shot{{Index: 0, Start: 0, End: 10}, {Index: 1, Start: 10, End: 20}}},
		{Shots: []*Shot{{Index: 2, Start: 20, End: 30}}},
	}}
	if s.ShotCount() != 3 {
		t.Fatalf("ShotCount = %d", s.ShotCount())
	}
	if len(s.Shots()) != 3 {
		t.Fatalf("Shots len = %d", len(s.Shots()))
	}
	f, l := s.FrameSpan()
	if f != 0 || l != 30 {
		t.Fatalf("FrameSpan = (%d,%d)", f, l)
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EventUnknown:           "unknown",
		EventPresentation:      "presentation",
		EventDialog:            "dialog",
		EventClinicalOperation: "clinical-operation",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("String(%d) = %q, want %q", k, k.String(), want)
		}
	}
	if GroupTemporal.String() != "temporal" || GroupSpatial.String() != "spatial" {
		t.Fatal("GroupKind strings wrong")
	}
}

func TestGroundTruthLookups(t *testing.T) {
	gt := &GroundTruth{
		Scenes: []TrueScene{
			{StartFrame: 0, EndFrame: 100, Event: EventDialog},
			{StartFrame: 100, EndFrame: 250, Event: EventPresentation},
		},
	}
	if gt.SceneAt(150) != 1 {
		t.Fatalf("SceneAt(150) = %d", gt.SceneAt(150))
	}
	if gt.SceneAt(900) != -1 {
		t.Fatal("SceneAt outside must be -1")
	}
}

// Property: Set followed by At round-trips for in-range coordinates.
func TestFramePropertySetAtRoundTrip(t *testing.T) {
	f := NewFrame(8, 8)
	prop := func(x, y uint8, r, g, b byte) bool {
		xi, yi := int(x%8), int(y%8)
		f.Set(xi, yi, r, g, b)
		rr, gg, bb := f.At(xi, yi)
		return rr == r && gg == g && bb == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
