package audio

import (
	"fmt"
	"math"
	"math/rand"
)

// ClipSeconds is the representative-clip length of §4.2: the audio stream
// of each shot is cut into ~2 s clips; shots shorter than 2 s are discarded
// from audio analysis.
const ClipSeconds = 2.0

// SpeechClassifier separates clean speech from non-speech clips with two
// GMMs over the 14 clip features, as in §4.2.
type SpeechClassifier struct {
	speech    *GMM
	nonSpeech *GMM
	mean, std []float64 // feature z-scoring fitted on the training set
}

// TrainSpeechClassifier fits the two GMMs from labelled clips.
func TrainSpeechClassifier(speech, nonSpeech [][]float64, sampleRate int, seed int64) (*SpeechClassifier, error) {
	feats := func(clips [][]float64) ([][]float64, error) {
		var out [][]float64
		for _, c := range clips {
			f := ClipFeatures(c, sampleRate)
			if f != nil {
				out = append(out, f)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("audio: no usable training clips")
		}
		return out, nil
	}
	fs, err := feats(speech)
	if err != nil {
		return nil, err
	}
	fn, err := feats(nonSpeech)
	if err != nil {
		return nil, err
	}
	c := &SpeechClassifier{}
	c.fitScaler(append(append([][]float64{}, fs...), fn...))
	for i := range fs {
		fs[i] = c.scale(fs[i])
	}
	for i := range fn {
		fn[i] = c.scale(fn[i])
	}
	rng := rand.New(rand.NewSource(seed))
	if c.speech, err = TrainGMM(fs, 2, rng); err != nil {
		return nil, err
	}
	if c.nonSpeech, err = TrainGMM(fn, 2, rng); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *SpeechClassifier) fitScaler(all [][]float64) {
	d := len(all[0])
	c.mean = make([]float64, d)
	c.std = make([]float64, d)
	for _, row := range all {
		for j, v := range row {
			c.mean[j] += v
		}
	}
	for j := range c.mean {
		c.mean[j] /= float64(len(all))
	}
	for _, row := range all {
		for j, v := range row {
			dv := v - c.mean[j]
			c.std[j] += dv * dv
		}
	}
	for j := range c.std {
		c.std[j] = math.Sqrt(c.std[j]/float64(len(all))) + 1e-9
	}
}

func (c *SpeechClassifier) scale(v []float64) []float64 {
	out := make([]float64, len(v))
	for j := range v {
		out[j] = (v[j] - c.mean[j]) / c.std[j]
	}
	return out
}

// Score returns the speech-vs-non-speech log-likelihood ratio of a clip;
// positive means speech. The second return is false when the clip is too
// short to featurise.
func (c *SpeechClassifier) Score(clip []float64, sampleRate int) (float64, bool) {
	f := ClipFeatures(clip, sampleRate)
	if f == nil {
		return 0, false
	}
	z := c.scale(f)
	return c.speech.LogLikelihood(z) - c.nonSpeech.LogLikelihood(z), true
}

// RepresentativeClip implements the §4.2 selection: the shot's audio is cut
// into adjacent ~2 s clips and the clip most like clean speech is returned.
// ok is false when the shot is shorter than one clip (such shots are
// discarded from audio analysis) or when no clip can be featurised.
func (c *SpeechClassifier) RepresentativeClip(samples []float64, sampleRate int) (clip []float64, score float64, ok bool) {
	n := int(ClipSeconds * float64(sampleRate))
	if len(samples) < n {
		return nil, 0, false
	}
	bestScore := math.Inf(-1)
	for start := 0; start+n <= len(samples); start += n {
		s, valid := c.Score(samples[start:start+n], sampleRate)
		if valid && s > bestScore {
			bestScore = s
			clip = samples[start : start+n]
		}
	}
	if clip == nil {
		return nil, 0, false
	}
	return clip, bestScore, true
}
