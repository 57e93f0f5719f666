package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"classminer/internal/vidmodel"
)

func tinyScript(rng *rand.Rand) *Script {
	return &Script{
		Name: "tiny",
		Scenes: []SceneSpec{
			PresentationScene(rng, 0, 1, 1),
			DialogScene(rng, 1, 2, 1, 2),
			OperationScene(rng, 2, 3, ContentSurgical, 0),
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	s1 := tinyScript(rand.New(rand.NewSource(5)))
	s2 := tinyScript(rand.New(rand.NewSource(5)))
	v1, err := Generate(cfg, s1, 42)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Generate(cfg, s2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1.Frames) != len(v2.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(v1.Frames), len(v2.Frames))
	}
	for i := range v1.Frames {
		for j := range v1.Frames[i].Pix {
			if v1.Frames[i].Pix[j] != v2.Frames[i].Pix[j] {
				t.Fatalf("frame %d differs at byte %d", i, j)
			}
		}
	}
	for i := range v1.Audio.Samples {
		if v1.Audio.Samples[i] != v2.Audio.Samples[i] {
			t.Fatalf("audio differs at sample %d", i)
		}
	}
	// The digest pins the rendering itself: a change to the generator that
	// moves one pixel, one sample, one RNG draw or one ground-truth
	// boundary moves it, and with it every corpus mined from synth.
	const want = "9627e6c990413b67beb0e5fbadbc943e71d43750a358bd8549d33792dbf69897"
	if got := videoDigest(v1); got != want {
		t.Errorf("Generate digest = %s, want %s", got, want)
	}
}

// videoDigest hashes every pixel, audio sample and ground-truth boundary.
func videoDigest(v *vidmodel.Video) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, f := range v.Frames {
		put(uint64(f.W))
		put(uint64(f.H))
		h.Write(f.Pix)
	}
	for _, s := range v.Audio.Samples {
		put(math.Float64bits(s))
	}
	for _, s := range v.Truth.ShotStarts {
		put(uint64(s))
	}
	for _, s := range v.Truth.Scenes {
		put(uint64(s.StartFrame))
		put(uint64(s.EndFrame))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGenerateGroundTruthConsistent(t *testing.T) {
	cfg := DefaultConfig()
	script := tinyScript(rand.New(rand.NewSource(7)))
	v, err := Generate(cfg, script, 1)
	if err != nil {
		t.Fatal(err)
	}
	shots, frames := 0, 0
	for _, sc := range script.Scenes {
		for _, g := range sc.Groups {
			for _, sh := range g.Shots {
				shots++
				frames += sh.Frames
			}
		}
	}
	if len(v.Truth.ShotStarts) != shots {
		t.Fatalf("shot starts = %d, want %d", len(v.Truth.ShotStarts), shots)
	}
	if len(v.Frames) != frames {
		t.Fatalf("frames = %d, want %d", len(v.Frames), frames)
	}
	// Scenes tile the video exactly.
	if v.Truth.Scenes[0].StartFrame != 0 {
		t.Fatal("first scene must start at 0")
	}
	for i := 1; i < len(v.Truth.Scenes); i++ {
		if v.Truth.Scenes[i].StartFrame != v.Truth.Scenes[i-1].EndFrame {
			t.Fatalf("scene %d not contiguous", i)
		}
	}
	if last := v.Truth.Scenes[len(v.Truth.Scenes)-1]; last.EndFrame != len(v.Frames) {
		t.Fatalf("last scene ends at %d, want %d", last.EndFrame, len(v.Frames))
	}
	// Shot starts strictly increase from 0.
	if v.Truth.ShotStarts[0] != 0 {
		t.Fatal("first shot must start at 0")
	}
	for i := 1; i < len(v.Truth.ShotStarts); i++ {
		if v.Truth.ShotStarts[i] <= v.Truth.ShotStarts[i-1] {
			t.Fatalf("shot starts not increasing at %d", i)
		}
	}
	// Audio length matches frames.
	spf := int(float64(cfg.SampleRate) / cfg.FPS)
	if want := len(v.Frames) * spf; len(v.Audio.Samples) != want {
		t.Fatalf("audio samples = %d, want %d", len(v.Audio.Samples), want)
	}
}

func TestGenerateValidation(t *testing.T) {
	script := tinyScript(rand.New(rand.NewSource(1)))
	if _, err := Generate(Config{W: 0, H: 10, FPS: 10, SampleRate: 8000}, script, 1); err == nil {
		t.Fatal("want geometry error")
	}
	if _, err := Generate(Config{W: 10, H: 10, FPS: 0, SampleRate: 8000}, script, 1); err == nil {
		t.Fatal("want fps error")
	}
	if _, err := Generate(Config{W: 10, H: 10, FPS: 10, SampleRate: 0}, script, 1); err == nil {
		t.Fatal("want sample-rate error")
	}
	if _, err := Generate(DefaultConfig(), &Script{Name: "empty"}, 1); err == nil {
		t.Fatal("want empty-script error")
	}
	bad := &Script{Name: "bad", Scenes: []SceneSpec{{Groups: []GroupSpec{{Shots: []ShotSpec{{Frames: 0}}}}}}}
	if _, err := Generate(DefaultConfig(), bad, 1); err == nil {
		t.Fatal("want zero-frame-shot error")
	}
}

func TestSceneBuildersEventLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if s := PresentationScene(rng, 0, 1, 1); s.Event != vidmodel.EventPresentation {
		t.Fatal("presentation label")
	}
	if s := DialogScene(rng, 0, 1, 1, 2); s.Event != vidmodel.EventDialog {
		t.Fatal("dialog label")
	}
	if s := OperationScene(rng, 0, 1, ContentSurgical, 0); s.Event != vidmodel.EventClinicalOperation {
		t.Fatal("operation label")
	}
	if s := EstablishingScene(rng, 0, 1); s.Event != vidmodel.EventUnknown {
		t.Fatal("establishing label")
	}
}

func TestDialogScriptsAlternatingSpeakers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := DialogScene(rng, 0, 1, 3, 5)
	g := s.Groups[0]
	if len(g.Shots) < 5 {
		t.Fatalf("dialog group has %d shots, want >= 5", len(g.Shots))
	}
	for i, sh := range g.Shots {
		want := 3
		if i%2 == 1 {
			want = 5
		}
		if sh.Speaker != want {
			t.Fatalf("shot %d speaker = %d, want %d", i, sh.Speaker, want)
		}
	}
}

func TestPresentationSingleSpeakerWithSlidesAndFace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := PresentationScene(rng, 0, 1, 4)
	slides, faces := 0, 0
	for _, g := range s.Groups {
		for _, sh := range g.Shots {
			if sh.Speaker != 4 {
				t.Fatalf("presentation must keep one speaker, got %d", sh.Speaker)
			}
			switch sh.Cam.Kind {
			case ContentSlide:
				slides++
			case ContentFace:
				faces++
				if sh.Cam.FaceFrac < 0.10 {
					t.Fatalf("presenter face fraction %v below close-up threshold", sh.Cam.FaceFrac)
				}
			}
		}
	}
	if slides == 0 || faces == 0 {
		t.Fatalf("presentation needs slides (%d) and faces (%d)", slides, faces)
	}
}

func TestVoicesDiffer(t *testing.T) {
	seen := map[float64]bool{}
	for id := 1; id <= 5; id++ {
		v := VoiceForSpeaker(id)
		key := v.F0*1e6 + v.Formants[0]
		if seen[key] {
			t.Fatalf("speaker %d voice collides", id)
		}
		seen[key] = true
	}
}

func TestSpeechHasEnergyAmbientIsDifferent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 8000
	speech := make([]float64, n)
	synthSpeech(speech, 0, VoiceForSpeaker(1), 8000, rng)
	ambient := make([]float64, n)
	synthAmbient(ambient, 8000, rng)
	sil := make([]float64, n)
	synthSilence(sil, rng)
	e := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += v * v
		}
		return s / float64(len(x))
	}
	if e(speech) < 1e-4 {
		t.Fatalf("speech energy %v too low", e(speech))
	}
	if e(sil) > 1e-4 {
		t.Fatalf("silence energy %v too high", e(sil))
	}
	for _, v := range speech {
		if math.Abs(v) > 1.5 {
			t.Fatalf("speech sample %v out of range", v)
		}
	}
	if e(ambient) == 0 {
		t.Fatal("ambient must be non-silent")
	}
}

func TestTrainingClips(t *testing.T) {
	speech, non := TrainingClips(8000, 1.0, 6, 9)
	if len(speech) != 6 || len(non) != 6 {
		t.Fatalf("clip counts = %d/%d", len(speech), len(non))
	}
	for _, c := range speech {
		if len(c) != 8000 {
			t.Fatalf("clip len = %d", len(c))
		}
	}
}

func TestCorpusScripts(t *testing.T) {
	scripts := CorpusScripts(0.3, 11)
	if len(scripts) != 5 {
		t.Fatalf("corpus has %d videos, want 5", len(scripts))
	}
	names := CorpusNames()
	for i, s := range scripts {
		if s.Name != names[i] {
			t.Fatalf("video %d name = %q, want %q", i, s.Name, names[i])
		}
		if len(s.Scenes) == 0 {
			t.Fatalf("video %q has no scenes", s.Name)
		}
	}
}

func TestCorpusScriptByNameMatchesBatch(t *testing.T) {
	batch := CorpusScripts(0.3, 11)
	single := CorpusScript("laparoscopy", 0.3, 11)
	if single == nil {
		t.Fatal("script not found")
	}
	var want *Script
	for _, s := range batch {
		if s.Name == "laparoscopy" {
			want = s
		}
	}
	if len(single.Scenes) != len(want.Scenes) {
		t.Fatalf("scene counts differ: %d vs %d", len(single.Scenes), len(want.Scenes))
	}
	if CorpusScript("no-such-video", 1, 1) != nil {
		t.Fatal("unknown name must return nil")
	}
}

func TestCorpusScaleGrowth(t *testing.T) {
	small := CorpusScripts(0.2, 3)
	large := CorpusScripts(1.0, 3)
	for i := range small {
		if len(large[i].Scenes) <= len(small[i].Scenes) {
			t.Fatalf("scale must grow video %d: %d vs %d", i, len(small[i].Scenes), len(large[i].Scenes))
		}
	}
}

func TestContentKindString(t *testing.T) {
	kinds := []ContentKind{ContentEstablishing, ContentSlide, ContentClipart, ContentBlack,
		ContentFace, ContentSurgical, ContentSkinExam, ContentOrgan}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("ContentKind %d string %q invalid or duplicate", k, s)
		}
		seen[s] = true
	}
}

func TestRenderedContentDistinguishable(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pal := paletteFamilies[0]
	slide := renderFrame(Camera{Kind: ContentSlide, Palette: pal}, 48, 36, 0, 0, rng)
	black := renderFrame(Camera{Kind: ContentBlack, Palette: pal}, 48, 36, 0, 0, rng)
	face := renderFrame(Camera{Kind: ContentFace, Palette: pal, FaceFrac: 0.15}, 48, 36, 0, 0, rng)
	// Black frame is dark, slide is bright.
	var slideLuma, blackLuma float64
	for y := 0; y < 36; y++ {
		for x := 0; x < 48; x++ {
			slideLuma += slide.Gray(x, y)
			blackLuma += black.Gray(x, y)
		}
	}
	if blackLuma >= slideLuma {
		t.Fatal("black frame must be darker than a slide")
	}
	// Face frame contains skin-tone pixels.
	skin := 0
	for y := 0; y < 36; y++ {
		for x := 0; x < 48; x++ {
			r, g, b := face.At(x, y)
			if r > 150 && g > 100 && b > 80 && r > g && g > b {
				skin++
			}
		}
	}
	if skin < 48*36/20 {
		t.Fatalf("face frame has too few skin pixels: %d", skin)
	}
}
