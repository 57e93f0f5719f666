package mat

import "fmt"

// PCA holds a fitted principal-component projection. The hierarchical index
// (§6.2 of the paper) fits one PCA per database node so that only the
// discriminating features participate in distance computations, shrinking
// the per-comparison cost T below the full-dimension cost Tm.
type PCA struct {
	Mean       []float64   // feature mean subtracted before projection
	Components [][]float64 // k rows, each a principal axis of dimension d
	Explained  []float64   // fraction of variance captured per component
}

// FitPCA fits a k-component PCA to the rows of x. k is clamped to the data
// dimension. It returns an error when x is empty or k < 1.
func FitPCA(x [][]float64, k int) (*PCA, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("mat: FitPCA needs at least one sample")
	}
	if k < 1 {
		return nil, fmt.Errorf("mat: FitPCA needs k >= 1, got %d", k)
	}
	d := len(x[0])
	if k > d {
		k = d
	}
	mean := Mean(x)
	values, vectors, err := Jacobi(covariance(x, mean))
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range values {
		if v > 0 {
			total += v
		}
	}
	p := &PCA{Mean: mean, Components: NewMatrix(k, d), Explained: make([]float64, k)}
	for c := 0; c < k; c++ {
		for r := 0; r < d; r++ {
			p.Components[c][r] = vectors[r][c]
		}
		if total > 0 && values[c] > 0 {
			p.Explained[c] = values[c] / total
		}
	}
	return p, nil
}

// Dim returns the dimensionality of the projected space.
func (p *PCA) Dim() int { return len(p.Components) }
