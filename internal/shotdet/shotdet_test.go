package shotdet

import (
	"math/rand"
	"testing"

	"classminer/internal/synth"
	"classminer/internal/vidmodel"
)

func genVideo(t testing.TB, seed int64) *vidmodel.Video {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	script := &synth.Script{Name: "shots", Scenes: []synth.SceneSpec{
		synth.PresentationScene(rng, 0, 1, 1),
		synth.DialogScene(rng, 1, 2, 1, 2),
		synth.OperationScene(rng, 2, 3, synth.ContentSurgical, 0),
	}}
	v, err := synth.Generate(synth.DefaultConfig(), script, seed)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// boundaryScore compares detected starts against ground truth with a small
// frame tolerance, returning recall and precision.
func boundaryScore(detected []*vidmodel.Shot, truth []int, tol int) (recall, precision float64) {
	var starts []int
	for _, s := range detected[1:] { // skip the implicit start at 0
		starts = append(starts, s.Start)
	}
	match := func(a, list []int) int {
		n := 0
		for _, x := range a {
			for _, y := range list {
				if x-y <= tol && y-x <= tol {
					n++
					break
				}
			}
		}
		return n
	}
	trueCuts := truth[1:]
	if len(trueCuts) == 0 || len(starts) == 0 {
		return 0, 0
	}
	recall = float64(match(trueCuts, starts)) / float64(len(trueCuts))
	precision = float64(match(starts, trueCuts)) / float64(len(starts))
	return recall, precision
}

func TestDetectFindsScriptedCuts(t *testing.T) {
	v := genVideo(t, 1)
	shots, trace, err := Detect(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(shots) < 2 {
		t.Fatalf("found %d shots, want several", len(shots))
	}
	recall, precision := boundaryScore(shots, v.Truth.ShotStarts, 1)
	if recall < 0.9 {
		t.Fatalf("boundary recall = %.2f, want >= 0.9 (detected %d shots vs %d true)",
			recall, len(shots), len(v.Truth.ShotStarts))
	}
	if precision < 0.9 {
		t.Fatalf("boundary precision = %.2f, want >= 0.9", precision)
	}
	if len(trace.Diffs) != len(v.Frames)-1 {
		t.Fatalf("trace diffs = %d, want %d", len(trace.Diffs), len(v.Frames)-1)
	}
	if len(trace.Thresholds) != len(trace.Diffs) {
		t.Fatal("trace thresholds length mismatch")
	}
}

func TestDetectShotsTileVideo(t *testing.T) {
	v := genVideo(t, 2)
	shots, _, err := Detect(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if shots[0].Start != 0 {
		t.Fatal("first shot must start at frame 0")
	}
	for i := 1; i < len(shots); i++ {
		if shots[i].Start != shots[i-1].End {
			t.Fatalf("shot %d not contiguous", i)
		}
		if shots[i].Index != i {
			t.Fatalf("shot %d has index %d", i, shots[i].Index)
		}
	}
	if last := shots[len(shots)-1]; last.End != len(v.Frames) {
		t.Fatalf("last shot ends at %d, want %d", last.End, len(v.Frames))
	}
}

func TestDetectRepFrameIsTenth(t *testing.T) {
	v := genVideo(t, 3)
	shots, _, err := Detect(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shots {
		if s.Len() > 9 {
			if s.RepFrame != s.Start+9 {
				t.Fatalf("shot %d rep frame = %d, want %d (10th frame)", s.Index, s.RepFrame, s.Start+9)
			}
		} else if s.RepFrame < s.Start || s.RepFrame >= s.End {
			t.Fatalf("shot %d rep frame %d outside [%d,%d)", s.Index, s.RepFrame, s.Start, s.End)
		}
		if len(s.Color) != 256 || len(s.Texture) != 10 {
			t.Fatalf("shot %d descriptor dims = %d/%d", s.Index, len(s.Color), len(s.Texture))
		}
	}
}

func TestDetectStaticVideoIsOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := &vidmodel.Video{Name: "static", FPS: 10}
	base := vidmodel.NewFrame(32, 24)
	for y := 0; y < 24; y++ {
		for x := 0; x < 32; x++ {
			base.Set(x, y, 90, 120, 150)
		}
	}
	for i := 0; i < 120; i++ {
		f := base.Clone()
		// Sensor noise only.
		for j := range f.Pix {
			f.Pix[j] = byte(int(f.Pix[j]) + rng.Intn(5) - 2)
		}
		v.Frames = append(v.Frames, f)
	}
	shots, _, err := Detect(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(shots) != 1 {
		t.Fatalf("static video produced %d shots, want 1", len(shots))
	}
}

func TestDetectEmptyVideo(t *testing.T) {
	if _, _, err := Detect(&vidmodel.Video{}, Config{}); err == nil {
		t.Fatal("want error on empty video")
	}
	if _, _, err := Detect(nil, Config{}); err == nil {
		t.Fatal("want error on nil video")
	}
}

func TestDetectSingleFrame(t *testing.T) {
	v := &vidmodel.Video{FPS: 10, Frames: []*vidmodel.Frame{vidmodel.NewFrame(8, 8)}}
	shots, _, err := Detect(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(shots) != 1 || shots[0].Len() != 1 {
		t.Fatalf("single frame video: %d shots", len(shots))
	}
}

func TestDetectAdaptsToSmallChanges(t *testing.T) {
	// Two visually close shots (small palette shift) must still be split —
	// the "eyeball" case of Fig. 5 that a single global threshold misses.
	v := &vidmodel.Video{Name: "subtle", FPS: 10}
	rng := rand.New(rand.NewSource(5))
	mk := func(r, g, b byte, n int) {
		for i := 0; i < n; i++ {
			f := vidmodel.NewFrame(32, 24)
			for y := 0; y < 24; y++ {
				for x := 0; x < 32; x++ {
					f.Set(x, y, byte(int(r)+rng.Intn(3)), byte(int(g)+rng.Intn(3)), byte(int(b)+rng.Intn(3)))
				}
			}
			v.Frames = append(v.Frames, f)
		}
	}
	mk(120, 100, 90, 40)
	mk(135, 112, 100, 40) // subtle change
	shots, _, err := Detect(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(shots) != 2 {
		t.Fatalf("subtle cut: got %d shots, want 2", len(shots))
	}
	if shots[1].Start != 40 {
		t.Fatalf("cut at %d, want 40", shots[1].Start)
	}
}

func BenchmarkDetect(b *testing.B) {
	v := genVideo(b, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Detect(v, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
