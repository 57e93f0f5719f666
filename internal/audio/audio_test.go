package audio

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"classminer/internal/synth"
)

const sr = 8000

// Shared trained classifier: training is the expensive part, reuse it.
var (
	clfOnce sync.Once
	clf     *SpeechClassifier
	clfErr  error
)

func classifier(t testing.TB) *SpeechClassifier {
	t.Helper()
	clfOnce.Do(func() {
		speech, non := synth.TrainingClips(sr, ClipSeconds, 30, 101)
		clf, clfErr = TrainSpeechClassifier(speech, non, sr, 7)
	})
	if clfErr != nil {
		t.Fatal(clfErr)
	}
	return clf
}

func speechClip(speaker int, seconds float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]float64, int(seconds*sr))
	synthSpeechInto(buf, speaker, rng)
	return buf
}

// synthSpeechInto mirrors the generator's voice synthesis via the exported
// synth API (no private access): generate a one-shot script is overkill, so
// reuse TrainingClips-style synthesis through synth.VoiceForSpeaker.
func synthSpeechInto(buf []float64, speaker int, rng *rand.Rand) {
	v := synth.VoiceForSpeaker(speaker)
	// Reimplementation-free path: synth exposes TrainingClips for speech,
	// but per-speaker clips are needed here, so synthesize harmonically.
	nHarm := 30
	for i := range buf {
		t := float64(i) / sr
		env := math.Abs(math.Sin(2 * math.Pi * 3.4 * t))
		var s float64
		for h := 1; h <= nHarm; h++ {
			f := float64(h) * v.F0
			if f > sr/2*0.9 {
				break
			}
			var w float64
			for _, fm := range v.Formants {
				d := (f - fm) / v.Bandwidth
				w += math.Exp(-0.5 * d * d)
			}
			s += (w + 0.02) / float64(h) * math.Sin(2*math.Pi*f*t)
		}
		buf[i] = 0.3*env*s*0.25 + (rng.Float64()*2-1)*0.004
	}
}

func TestFFTKnownFrequency(t *testing.T) {
	n := 256
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = math.Sin(2 * math.Pi * 16 * float64(i) / float64(n))
	}
	fft(re, im)
	// Peak must be at bin 16.
	best, bestMag := 0, 0.0
	for b := 1; b < n/2; b++ {
		mag := re[b]*re[b] + im[b]*im[b]
		if mag > bestMag {
			best, bestMag = b, mag
		}
	}
	if best != 16 {
		t.Fatalf("FFT peak at bin %d, want 16", best)
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	re1 := append([]float64(nil), a...)
	im1 := make([]float64, n)
	fft(re1, im1)
	re2 := make([]float64, n)
	for i := range a {
		re2[i] = 2 * a[i]
	}
	im2 := make([]float64, n)
	fft(re2, im2)
	for i := range re1 {
		if math.Abs(re2[i]-2*re1[i]) > 1e-9 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestMFCCShape(t *testing.T) {
	clip := speechClip(1, 1.0, 2)
	m := MFCCs(clip, sr)
	// 1 s at 10 ms hop with a 30 ms window: 98 frames.
	if len(m) < 90 || len(m) > 100 {
		t.Fatalf("MFCC frames = %d, want ~98", len(m))
	}
	for _, v := range m {
		if len(v) != NumMFCC {
			t.Fatalf("MFCC dim = %d, want %d", len(v), NumMFCC)
		}
	}
}

func TestMFCCTooShort(t *testing.T) {
	if MFCCs(make([]float64, 10), sr) != nil {
		t.Fatal("too-short clip must yield nil")
	}
}

func TestMFCCDistinguishesSpeakers(t *testing.T) {
	// Same speaker twice vs two different speakers: mean MFCC distance
	// must be clearly larger across speakers.
	a1 := MFCCs(speechClip(1, 1.0, 3), sr)
	a2 := MFCCs(speechClip(1, 1.0, 4), sr)
	b := MFCCs(speechClip(3, 1.0, 5), sr)
	mean := func(x [][]float64) []float64 {
		out := make([]float64, NumMFCC)
		for _, row := range x {
			for j, v := range row {
				out[j] += v
			}
		}
		for j := range out {
			out[j] /= float64(len(x))
		}
		return out
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	same := dist(mean(a1), mean(a2))
	diff := dist(mean(a1), mean(b))
	if diff < 2*same {
		t.Fatalf("speaker separation too weak: same=%.3f diff=%.3f", same, diff)
	}
}

func TestClipFeaturesShape(t *testing.T) {
	f := ClipFeatures(speechClip(2, 2.0, 6), sr)
	if len(f) != NumClipFeatures {
		t.Fatalf("feature dim = %d, want %d", len(f), NumClipFeatures)
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is %v", i, v)
		}
	}
	if ClipFeatures(make([]float64, 5), sr) != nil {
		t.Fatal("too-short clip must yield nil features")
	}
}

// isSpeech is the event miner's speech test: a clip with a positive score.
func isSpeech(c *SpeechClassifier, clip []float64) bool {
	s, ok := c.Score(clip, sr)
	return ok && s > 0
}

func TestSpeechClassifierSeparates(t *testing.T) {
	c := classifier(t)
	// Fresh clips (different seeds from training).
	speech, non := synth.TrainingClips(sr, ClipSeconds, 10, 999)
	correct := 0
	for _, clip := range speech {
		if isSpeech(c, clip) {
			correct++
		}
	}
	for _, clip := range non {
		if !isSpeech(c, clip) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(speech)+len(non))
	if acc < 0.85 {
		t.Fatalf("speech classifier accuracy = %.2f, want >= 0.85", acc)
	}
}

func TestRepresentativeClip(t *testing.T) {
	c := classifier(t)
	// A 6 s shot: 2 s ambient, 2 s speech, 2 s ambient. The representative
	// clip must be the speech segment.
	rng := rand.New(rand.NewSource(8))
	shot := make([]float64, 6*sr)
	ambient, _ := synth.TrainingClips(sr, 2, 2, 777)
	copy(shot[0:2*sr], ambient[1])
	copy(shot[2*sr:4*sr], speechClip(2, 2.0, 9))
	copy(shot[4*sr:6*sr], ambient[1])
	_ = rng
	clip, score, ok := c.RepresentativeClip(shot, sr)
	if !ok {
		t.Fatal("representative clip not found")
	}
	if score <= 0 {
		t.Fatalf("representative clip score %.2f should be speech-positive", score)
	}
	if !isSpeech(c, clip) {
		t.Fatal("representative clip must classify as speech")
	}
}

func TestRepresentativeClipTooShort(t *testing.T) {
	c := classifier(t)
	if _, _, ok := c.RepresentativeClip(make([]float64, sr), sr); ok {
		t.Fatal("sub-2s shot must be discarded")
	}
}

func TestBICSameSpeakerNoChange(t *testing.T) {
	a := speechClip(2, 2.0, 10)
	b := speechClip(2, 2.0, 11)
	res, err := SpeakerChangeMFCC(MFCCs(a, sr), MFCCs(b, sr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed {
		t.Fatalf("same speaker flagged as change (ΔBIC = %.1f)", res.DeltaBIC)
	}
}

func TestBICDifferentSpeakersChange(t *testing.T) {
	a := speechClip(1, 2.0, 12)
	b := speechClip(4, 2.0, 13)
	res, err := SpeakerChangeMFCC(MFCCs(a, sr), MFCCs(b, sr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed {
		t.Fatalf("different speakers not flagged (ΔBIC = %.1f)", res.DeltaBIC)
	}
}

func TestBICTooShort(t *testing.T) {
	if _, err := SpeakerChangeMFCC(MFCCs(make([]float64, 100), sr), MFCCs(make([]float64, 100), sr), 0); err == nil {
		t.Fatal("want error for too-short clips")
	}
}

func TestGMMTrainAndScore(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var x [][]float64
	for i := 0; i < 100; i++ {
		x = append(x, []float64{rng.NormFloat64() * 0.3, 5 + rng.NormFloat64()*0.3})
		x = append(x, []float64{4 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3})
	}
	g, err := TrainGMM(x, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	inlier := g.LogLikelihood([]float64{0, 5})
	outlier := g.LogLikelihood([]float64{10, 10})
	if inlier <= outlier {
		t.Fatalf("GMM scores inverted: inlier %.2f, outlier %.2f", inlier, outlier)
	}
	var wsum float64
	for _, w := range g.Weights {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-6 {
		t.Fatalf("weights sum to %v", wsum)
	}
}

func TestGMMErrors(t *testing.T) {
	if _, err := TrainGMM(nil, 2, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want error on empty data")
	}
}

func BenchmarkMFCCs(b *testing.B) {
	clip := speechClip(1, 2.0, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MFCCs(clip, sr)
	}
}

func BenchmarkSpeakerChange(b *testing.B) {
	a := speechClip(1, 2.0, 16)
	c := speechClip(3, 2.0, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpeakerChangeMFCC(MFCCs(a, sr), MFCCs(c, sr), 0); err != nil {
			b.Fatal(err)
		}
	}
}
