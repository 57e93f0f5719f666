// Package mat provides the small dense linear-algebra kernels the rest of
// the system depends on: vector statistics, covariance estimation, Cholesky
// factorisation with log-determinants (used by the BIC speaker-change test),
// a symmetric eigensolver and PCA from a covariance (used by the
// hierarchical index for per-node dimension reduction), and a tiny k-means
// implementation (used by multi-center index nodes).
//
// Everything operates on plain float64 slices so callers never pay for an
// abstraction they do not need. Matrices are dense, row-major [][]float64.
//
// Results are reproducible to the bit. Mean and Covariance take rows four at
// a time for speed, but every accumulator receives its terms one row at a
// time in row order, exactly as a row-by-row loop adds them. KMeans draws
// random numbers only while seeding (KMeansSeeds); its Lloyd refinement
// (Lloyd) is deterministic, so independent clusterings may refine
// concurrently once their seeds are drawn in order. Lloyd skips the
// distances Hamerly's bounds prove cannot change an assignment, and only
// those: its centres, assignments and iteration count are plain Lloyd's
// bit for bit.
package mat

import (
	"errors"
	"math"
)

// ErrDimension is returned when operands have incompatible shapes.
var ErrDimension = errors.New("mat: dimension mismatch")

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// (numerically) symmetric positive definite even after regularisation.
var ErrNotPositiveDefinite = errors.New("mat: matrix not positive definite")

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrDimension)
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Mean returns the component-wise mean of the rows in x.
// It returns nil when x is empty.
func Mean(x [][]float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	d := len(x[0])
	m := make([]float64, d)
	r := 0
	for ; r+4 <= len(x); r += 4 {
		x0, x1, x2, x3 := rowsOf4(x[r:r+4], len(m))
		for j, s := range m {
			s += x0[j]
			s += x1[j]
			s += x2[j]
			s += x3[j]
			m[j] = s
		}
	}
	for _, row := range x[r:] {
		if len(row) != d {
			panic(ErrDimension)
		}
		for j, v := range row {
			m[j] += v
		}
	}
	inv := 1 / float64(len(x))
	for j := range m {
		m[j] *= inv
	}
	return m
}

// rowsOf4 returns the four rows of a row block, each checked to be d long.
// Blocking rows lets each accumulator be loaded and stored once per block
// rather than once per row; it still takes its terms in row order.
func rowsOf4(x [][]float64, d int) (x0, x1, x2, x3 []float64) {
	if len(x[0]) != d || len(x[1]) != d || len(x[2]) != d || len(x[3]) != d {
		panic(ErrDimension)
	}
	return x[0][:d], x[1][:d], x[2][:d], x[3][:d]
}

// Covariance returns the (biased, 1/n) sample covariance matrix of the rows
// of x. The biased estimator matches the maximum-likelihood form used by the
// BIC likelihood-ratio test of the paper (§4.2, Eq. 18). It returns nil when
// x is empty.
func Covariance(x [][]float64) [][]float64 {
	if len(x) == 0 {
		return nil
	}
	// Each row is centred once, four rows at a time, and the upper triangle
	// accumulates the products of the centred values.
	mean := Mean(x)
	d := len(mean)
	cov := NewMatrix(d, d)
	c := make([]float64, 4*d)
	c0, c1, c2, c3 := c[:d:d], c[d:2*d:2*d], c[2*d:3*d:3*d], c[3*d:]
	r := 0
	for ; r+4 <= len(x); r += 4 {
		x0, x1, x2, x3 := rowsOf4(x[r:r+4], len(mean))
		for j, m := range mean {
			c0[j] = x0[j] - m
			c1[j] = x1[j] - m
			c2[j] = x2[j] - m
			c3[j] = x3[j] - m
		}
		for i := 0; i < d; i++ {
			a0, a1, a2, a3 := c0[i], c1[i], c2[i], c3[i]
			row := cov[i][i:]
			b0, b1, b2, b3 := c0[i:][:len(row)], c1[i:][:len(row)], c2[i:][:len(row)], c3[i:][:len(row)]
			for j, s := range row {
				s += a0 * b0[j]
				s += a1 * b1[j]
				s += a2 * b2[j]
				s += a3 * b3[j]
				row[j] = s
			}
		}
	}
	for _, xr := range x[r:] {
		if len(xr) != d {
			panic(ErrDimension)
		}
		for j, m := range mean {
			c0[j] = xr[j] - m
		}
		for i := 0; i < d; i++ {
			a0 := c0[i]
			row := cov[i][i:]
			b0 := c0[i:][:len(row)]
			for j := range row {
				row[j] += a0 * b0[j]
			}
		}
	}
	inv := 1 / float64(len(x))
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] *= inv
			cov[j][i] = cov[i][j]
		}
	}
	return cov
}

// NewMatrix allocates an r×c zero matrix backed by a single allocation.
func NewMatrix(r, c int) [][]float64 {
	backing := make([]float64, r*c)
	m := make([][]float64, r)
	for i := range m {
		m[i], backing = backing[:c:c], backing[c:]
	}
	return m
}

// Cholesky computes the lower-triangular factor L with m = L·Lᵀ.
// A small diagonal ridge is added progressively when m is near-singular,
// which is the standard regularisation for covariance matrices estimated
// from short audio clips.
func Cholesky(m [][]float64) ([][]float64, error) {
	n := len(m)
	for ridge := 0.0; ridge <= 1e-3; ridge = nextRidge(ridge) {
		l, ok := tryCholesky(m, n, ridge)
		if ok {
			return l, nil
		}
	}
	return nil, ErrNotPositiveDefinite
}

func nextRidge(r float64) float64 {
	if r == 0 {
		return 1e-9
	}
	return r * 10
}

func tryCholesky(m [][]float64, n int, ridge float64) ([][]float64, bool) {
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m[i][j]
			if i == j {
				sum += ridge
			}
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, false
				}
				l[i][j] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, true
}

// LogDet returns the natural log of the determinant of a symmetric
// positive-definite matrix via its Cholesky factor.
func LogDet(m [][]float64) (float64, error) {
	l, err := Cholesky(m)
	if err != nil {
		return 0, err
	}
	var ld float64
	for i := range l {
		ld += math.Log(l[i][i])
	}
	return 2 * ld, nil
}
