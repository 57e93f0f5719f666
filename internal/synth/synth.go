// Package synth is the data substrate of the reproduction: a deterministic
// generator of synthetic medical education videos with frame-accurate
// ground truth. The original paper evaluates on ~6 hours of proprietary
// MPEG-I medical videos; those are unavailable, so this package renders the
// closest synthetic equivalent — scripted presentations, doctor–patient
// dialogs, clinical operations and connective material, with per-speaker
// synthetic voices — while exposing the annotations evaluation needs.
//
// The mining pipeline never sees the ground truth; it consumes pixels and
// audio samples only.
package synth

import (
	"fmt"
	"math/rand"

	"classminer/internal/vidmodel"
)

// Config controls the rendered geometry and realism knobs.
type Config struct {
	W, H       int     // frame geometry
	FPS        float64 // frames per second
	SampleRate int     // audio samples per second
	Noise      float64 // per-channel pixel noise amplitude
}

// DefaultConfig returns the corpus-scale defaults: 48×36 @ 10 fps with
// 8 kHz audio and mild sensor noise.
func DefaultConfig() Config {
	return Config{W: 48, H: 36, FPS: 10, SampleRate: 8000, Noise: 3}
}

// Generate renders a script into a Video with full ground truth. The same
// (config, script, seed) triple always produces the identical video.
func Generate(cfg Config, script *Script, seed int64) (*vidmodel.Video, error) {
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("synth: invalid geometry %dx%d", cfg.W, cfg.H)
	}
	if cfg.FPS <= 0 {
		return nil, fmt.Errorf("synth: invalid fps %v", cfg.FPS)
	}
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("synth: invalid sample rate %d", cfg.SampleRate)
	}
	if len(script.Scenes) == 0 {
		return nil, fmt.Errorf("synth: script %q has no scenes", script.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	video := &vidmodel.Video{
		Name:  script.Name,
		FPS:   cfg.FPS,
		Audio: &vidmodel.AudioTrack{SampleRate: cfg.SampleRate},
		Truth: &vidmodel.GroundTruth{},
	}
	spf := int(float64(cfg.SampleRate) / cfg.FPS)

	for _, scene := range script.Scenes {
		sceneStart := len(video.Frames)
		for _, group := range scene.Groups {
			for _, shot := range group.Shots {
				if shot.Frames <= 0 {
					return nil, fmt.Errorf("synth: scene in %q scripts a %d-frame shot", script.Name, shot.Frames)
				}
				shotStart := len(video.Frames)
				video.Truth.ShotStarts = append(video.Truth.ShotStarts, shotStart)
				for t := 0; t < shot.Frames; t++ {
					video.Frames = append(video.Frames, renderFrame(shot.Cam, cfg.W, cfg.H, t, cfg.Noise, rng))
				}
				// Audio for the shot's span, phase-continuous in global time.
				n := shot.Frames * spf
				buf := make([]float64, n)
				offset := shotStart * spf
				switch {
				case shot.Speaker > 0:
					synthSpeech(buf, offset, VoiceForSpeaker(shot.Speaker), cfg.SampleRate, rng)
				case shot.Audio == AudioSilence:
					synthSilence(buf, rng)
				case shot.Audio == AudioMusic:
					synthMusic(buf, offset, cfg.SampleRate, rng)
				default:
					synthAmbient(buf, cfg.SampleRate, rng)
				}
				video.Audio.Samples = append(video.Audio.Samples, buf...)
				video.Truth.SpeakerTurn = append(video.Truth.SpeakerTurn, vidmodel.SpeakerSegment{
					StartFrame: shotStart,
					EndFrame:   shotStart + shot.Frames,
					SpeakerID:  max(shot.Speaker, 0),
				})
			}
		}
		video.Truth.Scenes = append(video.Truth.Scenes, vidmodel.TrueScene{
			StartFrame: sceneStart,
			EndFrame:   len(video.Frames),
			Event:      scene.Event,
			ClusterID:  scene.ClusterID,
		})
	}
	return video, nil
}

// TrainingClips generates labelled audio clips for fitting the
// speech/non-speech GMM classifier of §4.2: clean speech from several
// voices versus ambient noise, silence and music. Each clip is seconds
// long at the given sample rate.
func TrainingClips(sampleRate int, seconds float64, perClass int, seed int64) (speech, nonSpeech [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	n := int(seconds * float64(sampleRate))
	for i := 0; i < perClass; i++ {
		clip := make([]float64, n)
		synthSpeech(clip, rng.Intn(100000), VoiceForSpeaker(1+i%6), sampleRate, rng)
		speech = append(speech, clip)
	}
	for i := 0; i < perClass; i++ {
		clip := make([]float64, n)
		switch i % 3 {
		case 0:
			synthAmbient(clip, sampleRate, rng)
		case 1:
			synthSilence(clip, rng)
		default:
			synthMusic(clip, rng.Intn(100000), sampleRate, rng)
		}
		nonSpeech = append(nonSpeech, clip)
	}
	return speech, nonSpeech
}
