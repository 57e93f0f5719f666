// Package entropy implements the "fast entropy" automatic threshold
// detection technique the paper inherits from Fan et al. (MultiView,
// J. Electronic Imaging 2001, ref. [10]). The pipeline uses it wherever a
// data-dependent threshold is required: the shot-cut thresholds inside each
// 30-frame analysis window (§3.1), the group-boundary thresholds T1 and T2
// (§3.2), and the group-merging threshold TG (§3.4).
//
// Threshold works in two stages. First a Kapur-style maximum-entropy split
// is computed over a histogram of the observations: the cut point that
// maximises the summed entropies of the two induced populations. Because
// maximum-entropy splits drift into the dominant mode when the two
// populations are very unbalanced (exactly the situation for shot
// boundaries, which are rare events), the split is then refined with
// Ridler–Calvard (ISODATA) iterations — the threshold is moved to the
// midpoint of the two class means until it stabilises. The refined value
// lands between the modes without any hand-set constant.
package entropy

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned when a threshold is requested for an empty sample
// (or a sample containing no finite values).
var ErrNoData = errors.New("entropy: no observations")

// DefaultBins is the histogram resolution used when the caller does not
// specify one. 64 bins is fine-grained enough for the few hundred
// observations a window or a video yields while keeping bins populated.
const DefaultBins = 64

// Threshold returns the fast-entropy threshold for the sample: a Kapur
// maximum-entropy split refined by Ridler–Calvard iterations. The result
// lies inside [min(values), max(values)]. When all observations are equal
// the common value is returned.
func Threshold(values []float64) (float64, error) {
	return ThresholdBins(values, DefaultBins)
}

// ThresholdBins is Threshold with an explicit histogram resolution.
func ThresholdBins(values []float64, bins int) (float64, error) {
	clean := finite(values)
	if len(clean) == 0 {
		return 0, ErrNoData
	}
	t, err := Kapur(clean, bins)
	if err != nil {
		return 0, err
	}
	return ridlerCalvard(clean, t), nil
}

// Kapur returns the raw Kapur maximum-entropy threshold over the sample,
// without midpoint refinement. Exposed for the thresholding ablation bench.
func Kapur(values []float64, bins int) (float64, error) {
	clean := finite(values)
	if len(clean) == 0 {
		return 0, ErrNoData
	}
	if bins < 2 {
		bins = 2
	}
	lo, hi := minMax(clean)
	if hi == lo {
		return lo, nil
	}
	hist := histogram(clean, lo, hi, bins)
	n := float64(len(clean))
	for i := range hist {
		hist[i] /= n
	}
	// Prefix sums of probability mass and of p*log p.
	cumP := make([]float64, bins+1)
	cumH := make([]float64, bins+1)
	for i := 0; i < bins; i++ {
		cumP[i+1] = cumP[i] + hist[i]
		if hist[i] > 0 {
			cumH[i+1] = cumH[i] + hist[i]*math.Log(hist[i])
		} else {
			cumH[i+1] = cumH[i]
		}
	}
	bestT, bestScore := 1, math.Inf(-1)
	for t := 1; t < bins; t++ {
		pLo := cumP[t]
		pHi := 1 - pLo
		if pLo <= 0 || pHi <= 0 {
			continue
		}
		hLo := math.Log(pLo) - cumH[t]/pLo
		hHi := math.Log(pHi) - (cumH[bins]-cumH[t])/pHi
		if s := hLo + hHi; s > bestScore {
			bestScore, bestT = s, t
		}
	}
	return lo + (hi-lo)*float64(bestT)/float64(bins), nil
}

// ridlerCalvard iterates t <- (mean(values <= t) + mean(values > t)) / 2
// until the threshold stabilises. It always terminates: the threshold is
// bounded inside [lo, hi] and the update is a contraction on the finite set
// of distinct splits.
func ridlerCalvard(values []float64, t float64) float64 {
	for iter := 0; iter < 64; iter++ {
		var sumLo, sumHi float64
		var nLo, nHi int
		for _, v := range values {
			if v <= t {
				sumLo += v
				nLo++
			} else {
				sumHi += v
				nHi++
			}
		}
		if nLo == 0 || nHi == 0 {
			return t
		}
		next := (sumLo/float64(nLo) + sumHi/float64(nHi)) / 2
		if math.Abs(next-t) < 1e-12 {
			return next
		}
		t = next
	}
	return t
}

// ThresholdOr returns the fast-entropy threshold, or fallback when the
// sample is empty. It exists because several call sites (e.g. tiny analysis
// windows at the end of a stream) legitimately see no observations.
func ThresholdOr(values []float64, fallback float64) float64 {
	t, err := Threshold(values)
	if err != nil {
		return fallback
	}
	return t
}

// Percentile returns the q-quantile (0 <= q <= 1) of the sample by linear
// interpolation. Several detectors use high quantiles as sanity floors for
// their adaptive thresholds.
func Percentile(values []float64, q float64) (float64, error) {
	clean := finite(values)
	if len(clean) == 0 {
		return 0, ErrNoData
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sort.Float64s(clean)
	pos := q * float64(len(clean)-1)
	i := int(pos)
	if i >= len(clean)-1 {
		return clean[len(clean)-1], nil
	}
	frac := pos - float64(i)
	return clean[i]*(1-frac) + clean[i+1]*frac, nil
}

// histogram bins clean values from [lo, hi] into the given number of bins,
// clamping indices so that numerical edge cases cannot escape the range.
func histogram(values []float64, lo, hi float64, bins int) []float64 {
	hist := make([]float64, bins)
	span := hi - lo
	for _, v := range values {
		u := (v - lo) / span
		b := int(u * float64(bins))
		if b < 0 || math.IsNaN(u) {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		hist[b]++
	}
	return hist
}

// finite returns a copy of values with NaN and ±Inf removed.
func finite(values []float64) []float64 {
	clean := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			clean = append(clean, v)
		}
	}
	return clean
}

func minMax(values []float64) (lo, hi float64) {
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
