// Package shotdet implements the shot-boundary detector of §3.1: a
// frame-difference detector whose threshold adapts to the local activity of
// each small analysis window (30 frames by default) using the fast-entropy
// automatic threshold technique, so that small but real changes between
// adjacent shots (the "eyeball" example of Fig. 5) are caught without
// drowning static material in false cuts.
//
// After segmentation, the 10th frame of every shot is selected as its
// representative frame and the §3.1 descriptors (256-bin HSV histogram,
// 10-dim Tamura coarseness) are extracted from it.
package shotdet

import (
	"fmt"
	"math"

	"classminer/internal/entropy"
	"classminer/internal/feature"
	"classminer/internal/vidmodel"
)

// Config tunes the detector. The zero value is replaced by defaults.
type Config struct {
	// Window is the local-analysis span in frames (paper: 30).
	Window int
	// MinShotFrames suppresses cuts closer together than this.
	MinShotFrames int
	// RepFrameIndex selects the representative frame within a shot
	// (paper: the 10th frame, i.e. offset 9, clamped to the shot).
	RepFrameIndex int
	// ActivitySigma is the local-activity multiplier: a cut must exceed
	// the window mean by this many window standard deviations.
	ActivitySigma float64
	// NoiseFloorScale multiplies the video-wide median difference to form
	// the absolute noise floor of every window threshold.
	NoiseFloorScale float64
}

// DefaultConfig mirrors the paper's published constants.
func DefaultConfig() Config {
	return Config{
		Window:          30,
		MinShotFrames:   5,
		RepFrameIndex:   9,
		ActivitySigma:   3,
		NoiseFloorScale: 3,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Window <= 1 {
		c.Window = d.Window
	}
	if c.MinShotFrames <= 0 {
		c.MinShotFrames = d.MinShotFrames
	}
	if c.RepFrameIndex <= 0 {
		c.RepFrameIndex = d.RepFrameIndex
	}
	if c.ActivitySigma <= 0 {
		c.ActivitySigma = d.ActivitySigma
	}
	if c.NoiseFloorScale <= 0 {
		c.NoiseFloorScale = d.NoiseFloorScale
	}
	return c
}

// Trace records the detector's internals for inspection and for
// regenerating the paper's Fig. 5 (frame differences and the per-window
// thresholds).
type Trace struct {
	Diffs      []float64 // Diffs[t] = difference between frames t and t+1
	Thresholds []float64 // per-difference local threshold actually applied
	Cuts       []int     // frame indices where new shots begin (excluding 0)
}

// Detect segments the video into shots and extracts representative-frame
// descriptors. It never returns an empty slice for a non-empty video: the
// whole video is one shot when no cut is found.
func Detect(v *vidmodel.Video, cfg Config) ([]*vidmodel.Shot, *Trace, error) {
	if v == nil || len(v.Frames) == 0 {
		return nil, nil, fmt.Errorf("shotdet: empty video")
	}
	cfg = cfg.withDefaults()
	w0, h0 := v.Frames[0].W, v.Frames[0].H
	hists := make([][]float64, len(v.Frames))
	for i, f := range v.Frames {
		hists[i] = feature.HSVHistogram(f, f.W, f.H)
	}
	diffs := make([]float64, 0, len(v.Frames)-1)
	for i := 1; i < len(v.Frames); i++ {
		diffs = append(diffs, feature.FrameDiff(hists[i-1], hists[i]))
	}
	cuts, thresholds := findCuts(diffs, cfg)
	trace := &Trace{Diffs: diffs, Thresholds: thresholds, Cuts: cuts}

	shots := buildShots(v, cuts, cfg, w0, h0, hists)
	return shots, trace, nil
}

// findCuts applies the windowed adaptive threshold to the difference
// series. diffs[t] compares frames t and t+1; a detected cut at diffs[t]
// means a new shot starts at frame t+1.
func findCuts(diffs []float64, cfg Config) (cuts []int, thresholds []float64) {
	n := len(diffs)
	thresholds = make([]float64, n)
	if n == 0 {
		return nil, thresholds
	}
	med, _ := entropy.Percentile(diffs, 0.5)
	floor := med * cfg.NoiseFloorScale
	if floor < 0.05 {
		floor = 0.05
	}
	lastCut := -cfg.MinShotFrames
	for t := 0; t < n; t++ {
		lo := t - cfg.Window/2
		hi := lo + cfg.Window
		if lo < 0 {
			lo, hi = 0, cfg.Window
		}
		if hi > n {
			hi = n
			if lo > hi-cfg.Window {
				lo = hi - cfg.Window
			}
			if lo < 0 {
				lo = 0
			}
		}
		window := diffs[lo:hi]
		th := localThreshold(window, cfg, floor)
		thresholds[t] = th
		if diffs[t] < th {
			continue
		}
		if !isLocalMax(diffs, t, 2) {
			continue
		}
		if t+1-lastCut < cfg.MinShotFrames {
			continue
		}
		cuts = append(cuts, t+1)
		lastCut = t + 1
	}
	return cuts, thresholds
}

// localThreshold adapts to a window: the fast-entropy split of the window's
// differences, backed by a robust local-activity term and an absolute noise
// floor. The activity statistics use the median and the MAD so that genuine
// cuts inside the window (which are rare, extreme values) cannot inflate
// the threshold and mask each other.
func localThreshold(window []float64, cfg Config, floor float64) float64 {
	med, mad := medianMAD(window)
	activity := med + cfg.ActivitySigma*1.4826*mad
	th := entropy.ThresholdOr(window, floor)
	// The entropy split is only trustworthy when the window is actually
	// bimodal; in an all-quiet window it splits noise. Taking the max of
	// the two estimates keeps the stronger evidence.
	if activity > th {
		th = activity
	}
	if floor > th {
		th = floor
	}
	return th
}

// medianMAD returns the median and the median absolute deviation of the
// window.
func medianMAD(window []float64) (med, mad float64) {
	if len(window) == 0 {
		return 0, 0
	}
	med, _ = entropy.Percentile(window, 0.5)
	dev := make([]float64, len(window))
	for i, v := range window {
		dev[i] = math.Abs(v - med)
	}
	mad, _ = entropy.Percentile(dev, 0.5)
	return med, mad
}

func isLocalMax(diffs []float64, t, radius int) bool {
	for d := -radius; d <= radius; d++ {
		i := t + d
		if i < 0 || i >= len(diffs) || i == t {
			continue
		}
		if diffs[i] > diffs[t] {
			return false
		}
	}
	return true
}

// buildShots materialises Shot values with representative-frame features.
func buildShots(v *vidmodel.Video, cuts []int, cfg Config, w, h int, hists [][]float64) []*vidmodel.Shot {
	starts := append([]int{0}, cuts...)
	shots := make([]*vidmodel.Shot, 0, len(starts))
	for i, start := range starts {
		end := len(v.Frames)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		rep := start + cfg.RepFrameIndex
		if rep >= end {
			rep = start + (end-start)/2
		}
		frame := v.Frames[rep]
		shots = append(shots, &vidmodel.Shot{
			Index:    i,
			Start:    start,
			End:      end,
			RepFrame: rep,
			Color:    hists[rep],
			Texture:  feature.TamuraCoarseness(frame, w, h),
		})
	}
	return shots
}
