package mat

import (
	"errors"
	"math"
)

// SymEigen computes the eigendecomposition of a symmetric matrix: it
// reduces m to tridiagonal form by Householder reflections and diagonalises
// that by the implicit QL method (EISPACK's tred2 and tql2, as JAMA
// transcribes them). It reads only m's lower triangle and does not write m.
// It returns the eigenvalues in decreasing order and a matrix whose COLUMNS
// are the corresponding orthonormal eigenvectors. The iteration stops on
// each subdiagonal element falling below 2⁻⁵² of the largest |d|+|e| it has
// met, a test relative to the matrix's own scale, so a small matrix is
// diagonalised as fully as a large one.
func SymEigen(m [][]float64) (values []float64, vectors [][]float64, err error) {
	n := len(m)
	if n == 0 {
		return nil, nil, errors.New("mat: SymEigen on empty matrix")
	}
	v := NewMatrix(n, n)
	for i := range v {
		if len(m[i]) != n {
			panic(ErrDimension)
		}
		for j := 0; j <= i; j++ {
			v[i][j], v[j][i] = m[i][j], m[i][j]
		}
	}
	d, e := make([]float64, n), make([]float64, n)
	tred2(v, d, e)
	if err := tql2(v, d, e); err != nil {
		return nil, nil, err
	}
	// Sort eigenpairs by decreasing eigenvalue.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] > d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			for _, row := range v {
				row[i], row[k] = row[k], row[i]
			}
		}
	}
	return d, v, nil
}

// tred2 reduces the symmetric matrix held in v to tridiagonal form by
// Householder reflections, leaving the diagonal in d, the subdiagonal in
// e[1:] (e[0] = 0) and the accumulated orthogonal transformation in v.
func tred2(v [][]float64, d, e []float64) {
	n := len(v)
	copy(d, v[n-1])
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under- and overflow.
		var scale, h float64
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v[i-1][j]
				v[i][j] = 0
				v[j][i] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// Apply the similarity transformation to the remaining columns.
		for j := 0; j < i; j++ {
			f = d[j]
			v[j][i] = f
			g = e[j] + v[j][j]*f
			for k := j + 1; k < i; k++ {
				g += v[k][j] * d[k]
				e[k] += v[k][j] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			for k := j; k < i; k++ {
				v[k][j] -= f*e[k] + g*d[k]
			}
			d[j] = v[i-1][j]
			v[i][j] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		v[n-1][i] = v[i][i]
		v[i][i] = 1
		if h := d[i+1]; h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v[k][i+1] / h
			}
			for j := 0; j <= i; j++ {
				var g float64
				for k := 0; k <= i; k++ {
					g += v[k][i+1] * v[k][j]
				}
				for k := 0; k <= i; k++ {
					v[k][j] -= g * d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			v[k][i+1] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v[n-1][j]
		v[n-1][j] = 0
	}
	v[n-1][n-1] = 1
	e[0] = 0
}

// tql2 diagonalises the tridiagonal matrix tred2 left in d and e by the
// implicit QL method, accumulating its rotations into v: d ends as the
// eigenvalues and v's columns as their eigenvectors, unsorted.
func tql2(v [][]float64, d, e []float64) error {
	n := len(d)
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && !(math.Abs(e[m]) <= eps*tst1) {
			m++
		}
		// d[l] is an eigenvalue when m == l; otherwise iterate.
		for iter := 0; m > l; iter++ {
			if iter == 30*n {
				// QL takes a few iterations per eigenvalue; the cap only
				// makes sure the loop ends.
				return errors.New("mat: eigenvalue iteration did not converge")
			}
			// Compute the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// The implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				// Accumulate the transformation.
				for _, row := range v {
					h = row[i+1]
					row[i+1] = s*row[i] + c*h
					row[i] = c*row[i] - s*h
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
