package audio

import (
	"fmt"
	"math"

	"classminer/internal/mat"
)

// DefaultPenalty is the BIC penalty factor λ of Eq. (19).
const DefaultPenalty = 1.0

// BICResult reports one speaker-change hypothesis test.
type BICResult struct {
	DeltaBIC float64 // Eq. (19); negative claims a speaker change
	Lambda   float64
	Changed  bool
}

// SpeakerChangeMFCC runs the §4.2 hypothesis test on the MFCC sequences of
// two representative clips: H0 models both with one multivariate Gaussian,
// H1 with one Gaussian each. The likelihood-ratio statistic of Eq. (18) is
//
//	Λ(R) = N/2·log|Σ| − Ni/2·log|Σi| − Nj/2·log|Σj|
//
// and ΔBIC(Λ) = −Λ(R) + λ·P with P = ½(p + ½p(p+1))·log N (Eq. 19).
// ΔBIC < 0 claims a change of speaker between the shots.
func SpeakerChangeMFCC(xa, xb [][]float64, lambda float64) (*BICResult, error) {
	if lambda <= 0 {
		lambda = DefaultPenalty
	}
	p := NumMFCC
	// The covariance of p-dim data needs comfortably more than p samples.
	if len(xa) < 2*p || len(xb) < 2*p {
		return nil, fmt.Errorf("audio: clips too short for BIC (%d and %d MFCC frames, need >= %d)",
			len(xa), len(xb), 2*p)
	}
	all := make([][]float64, 0, len(xa)+len(xb))
	all = append(all, xa...)
	all = append(all, xb...)

	ldAll, err := mat.LogDet(mat.Covariance(all))
	if err != nil {
		return nil, fmt.Errorf("audio: pooled covariance: %w", err)
	}
	ldA, err := mat.LogDet(mat.Covariance(xa))
	if err != nil {
		return nil, fmt.Errorf("audio: clip A covariance: %w", err)
	}
	ldB, err := mat.LogDet(mat.Covariance(xb))
	if err != nil {
		return nil, fmt.Errorf("audio: clip B covariance: %w", err)
	}
	nA, nB := float64(len(xa)), float64(len(xb))
	n := nA + nB
	lambdaR := n/2*ldAll - nA/2*ldA - nB/2*ldB
	penalty := 0.5 * (float64(p) + 0.5*float64(p)*float64(p+1)) * math.Log(n)
	delta := -lambdaR + lambda*penalty
	return &BICResult{DeltaBIC: delta, Lambda: lambda, Changed: delta < 0}, nil
}
