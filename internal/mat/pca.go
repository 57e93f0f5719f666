package mat

import "fmt"

// PCA holds a fitted principal-component projection. The hierarchical index
// (§6.2 of the paper) fits one PCA per database node so that only the
// discriminating features participate in distance computations, shrinking
// the per-comparison cost T below the full-dimension cost Tm.
type PCA struct {
	Mean       []float64   // feature mean subtracted before projection
	Components [][]float64 // k rows, each a principal axis of dimension d
}

// PCAFromCov fits a k-component PCA to data whose mean and covariance the
// caller has estimated: the components are cov's k leading eigenvectors,
// in decreasing order of eigenvalue. k is clamped to the data dimension. It
// keeps mean, and returns an error when mean is empty or k < 1.
func PCAFromCov(mean []float64, cov [][]float64, k int) (*PCA, error) {
	d := len(mean)
	if d == 0 {
		return nil, fmt.Errorf("mat: PCAFromCov needs at least one dimension")
	}
	if k < 1 {
		return nil, fmt.Errorf("mat: PCAFromCov needs k >= 1, got %d", k)
	}
	if len(cov) != d {
		panic(ErrDimension)
	}
	k = min(k, d)
	_, vectors, err := SymEigen(cov)
	if err != nil {
		return nil, err
	}
	p := &PCA{Mean: mean, Components: NewMatrix(k, d)}
	for c, axis := range p.Components {
		for r := range axis {
			axis[r] = vectors[r][c]
		}
	}
	return p, nil
}

// Dim returns the dimensionality of the projected space.
func (p *PCA) Dim() int { return len(p.Components) }
