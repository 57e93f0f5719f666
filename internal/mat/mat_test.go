package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != nil {
		t.Fatal("Mean(nil) should be nil")
	}
}

func TestMean(t *testing.T) {
	m := Mean([][]float64{{1, 2}, {3, 4}})
	if m[0] != 2 || m[1] != 3 {
		t.Fatalf("Mean = %v", m)
	}
}

// naiveMean and naiveCovariance are the row-at-a-time loops Mean and
// Covariance block: the references their output must equal bit for bit.
func naiveMean(x [][]float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	m := make([]float64, len(x[0]))
	for _, row := range x {
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

func naiveCovariance(x [][]float64) [][]float64 {
	if len(x) == 0 {
		return nil
	}
	d := len(x[0])
	mean := naiveMean(x)
	cov := NewMatrix(d, d)
	for _, row := range x {
		for i := 0; i < d; i++ {
			di := row[i] - mean[i]
			for j := i; j < d; j++ {
				cov[i][j] += di * (row[j] - mean[j])
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

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBlockedKernelsBitIdentical holds Mean and Covariance, which take rows
// four at a time, to the row-at-a-time loops bit for bit, at every row count
// modulo the block (0…9 rows, and 1 001) and on data with exact zeros and
// negative entries.
func TestBlockedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1001} {
		for _, d := range []int{1, 5, 48} {
			x := make([][]float64, n)
			for i := range x {
				x[i] = make([]float64, d)
				for j := range x[i] {
					switch rng.Intn(4) {
					case 0: // exact zero
					case 1:
						x[i][j] = -rng.ExpFloat64()
					default:
						x[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
					}
				}
			}
			if got, want := Mean(x), naiveMean(x); !sameBits(got, want) {
				t.Fatalf("n=%d d=%d: Mean = %v, want %v", n, d, got, want)
			}
			got, want := Covariance(x), naiveCovariance(x)
			if len(got) != len(want) {
				t.Fatalf("n=%d d=%d: Covariance has %d rows, want %d", n, d, len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("n=%d d=%d: Covariance row %d = %v, want %v", n, d, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Points on a line y=x have equal variances and covariance.
	x := [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	c := Covariance(x)
	if !almostEqual(c[0][0], 1.25, 1e-12) || !almostEqual(c[0][1], 1.25, 1e-12) {
		t.Fatalf("Covariance = %v", c)
	}
}

func TestCovarianceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([][]float64, 20)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	c := Covariance(x)
	for i := range c {
		for j := range c {
			if c[i][j] != c[j][i] {
				t.Fatalf("covariance not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	m := [][]float64{{4, 2, 0.6}, {2, 5, 1.2}, {0.6, 1.2, 3}}
	l, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m {
			var s float64
			for k := 0; k <= i && k <= j; k++ {
				s += l[i][k] * l[j][k]
			}
			if !almostEqual(s, m[i][j], 1e-9) {
				t.Fatalf("LL^T[%d][%d] = %v, want %v", i, j, s, m[i][j])
			}
		}
	}
}

func TestLogDetKnown(t *testing.T) {
	// Diagonal matrix: logdet = sum(log(d_i)).
	m := [][]float64{{2, 0}, {0, 8}}
	ld, err := LogDet(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ld, math.Log(16), 1e-9) {
		t.Fatalf("LogDet = %v, want %v", ld, math.Log(16))
	}
}

func TestLogDetSingularRegularised(t *testing.T) {
	// A rank-deficient covariance should still produce a finite value via
	// the progressive ridge (short audio clips hit this in practice).
	m := [][]float64{{1, 1}, {1, 1}}
	ld, err := LogDet(m)
	if err != nil {
		t.Fatalf("expected ridge to rescue singular matrix: %v", err)
	}
	if math.IsInf(ld, 0) || math.IsNaN(ld) {
		t.Fatalf("LogDet = %v, want finite", ld)
	}
}

func TestSymEigenKnownEigenvalues(t *testing.T) {
	m := [][]float64{{2, 1}, {1, 2}}
	values, vectors, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(values[0], 3, 1e-9) || !almostEqual(values[1], 1, 1e-9) {
		t.Fatalf("eigenvalues = %v, want [3 1]", values)
	}
	// First eigenvector should be parallel to (1,1)/sqrt2.
	v := []float64{vectors[0][0], vectors[1][0]}
	if !almostEqual(math.Abs(v[0]), math.Abs(v[1]), 1e-9) {
		t.Fatalf("eigenvector = %v, want parallel to (1,1)", v)
	}
}

func TestSymEigenEmpty(t *testing.T) {
	if _, _, err := SymEigen(nil); err == nil {
		t.Fatal("expected error on empty matrix")
	}
}

// checkEigen holds SymEigen's answer for m to an eigendecomposition: values
// in decreasing order, orthonormal columns to 1e-12, and every pair's
// residual ‖m·v − λ·v‖ within 1e-12 of m's largest |eigenvalue| (1 for the
// zero matrix).
func checkEigen(t *testing.T, name string, m [][]float64) []float64 {
	t.Helper()
	values, vectors, err := SymEigen(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := len(m)
	scale := 0.0
	for _, v := range values {
		scale = max(scale, math.Abs(v))
	}
	if scale == 0 {
		scale = 1
	}
	for c := 0; c < n; c++ {
		if c > 0 && values[c] > values[c-1] {
			t.Fatalf("%s: eigenvalues %v not decreasing", name, values)
		}
		for c2 := c; c2 < n; c2++ {
			var dot float64
			for r := 0; r < n; r++ {
				dot += vectors[r][c] * vectors[r][c2]
			}
			want := 0.0
			if c == c2 {
				want = 1
			}
			if math.Abs(dot-want) > 1e-12 {
				t.Fatalf("%s: columns %d·%d = %v, want %v", name, c, c2, dot, want)
			}
		}
		var res float64
		for r := 0; r < n; r++ {
			var mv float64
			for j := 0; j < n; j++ {
				mv += m[r][j] * vectors[j][c]
			}
			res += (mv - values[c]*vectors[r][c]) * (mv - values[c]*vectors[r][c])
		}
		if math.Sqrt(res) > 1e-12*scale {
			t.Fatalf("%s: pair %d residual %v", name, c, math.Sqrt(res))
		}
	}
	return values
}

// TestSymEigenCases holds SymEigen to an eigendecomposition on the shapes a
// fit can hand it: the zero matrix (a node of identical rows), 1×1, a
// diagonal matrix, repeated eigenvalues, a covariance far below 1 in scale,
// and random covariances up to the index's 48 selected coordinates.
func TestSymEigenCases(t *testing.T) {
	if got := checkEigen(t, "zero", NewMatrix(5, 5)); !sameBits(got, make([]float64, 5)) {
		t.Fatalf("zero: eigenvalues %v, want 0s", got)
	}
	if got := checkEigen(t, "1x1", [][]float64{{-2.5}}); got[0] != -2.5 {
		t.Fatalf("1x1: eigenvalue %v, want -2.5", got[0])
	}
	diag := [][]float64{{1, 0, 0, 0}, {0, 4, 0, 0}, {0, 0, -3, 0}, {0, 0, 0, 2}}
	if got := checkEigen(t, "diagonal", diag); !sameBits(got, []float64{4, 2, 1, -3}) {
		t.Fatalf("diagonal: eigenvalues %v, want [4 2 1 -3]", got)
	}
	// 2·I + 3·uuᵀ for a unit u: eigenvalue 5 once, 2 three times.
	u := []float64{0.5, 0.5, 0.5, 0.5}
	rep := NewMatrix(4, 4)
	for i := range rep {
		for j := range rep {
			rep[i][j] = 3 * u[i] * u[j]
		}
		rep[i][i] += 2
	}
	got := checkEigen(t, "repeated", rep)
	for i, want := range []float64{5, 2, 2, 2} {
		if !almostEqual(got[i], want, 1e-12) {
			t.Fatalf("repeated: eigenvalues %v, want [5 2 2 2]", got)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{2, 7, 48} {
		for _, scale := range []float64{1, 1e-6} {
			x := make([][]float64, 3*d)
			for i := range x {
				x[i] = make([]float64, d)
				for j := range x[i] {
					x[i][j] = rng.NormFloat64() * scale / float64(j+1)
				}
			}
			checkEigen(t, fmt.Sprintf("covariance d=%d scale=%g", d, scale), Covariance(x))
		}
	}
}

func TestPCAProjectsOntoDominantAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Data stretched along (1,1): the first component must lie along it.
	x := make([][]float64, 200)
	for i := range x {
		t0 := rng.NormFloat64() * 10
		x[i] = []float64{t0 + rng.NormFloat64()*0.1, t0 + rng.NormFloat64()*0.1}
	}
	p, err := PCAFromCov(Mean(x), Covariance(x), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := p.Components[0]; math.Abs(a[0]*math.Sqrt2/2+a[1]*math.Sqrt2/2) < 0.999 {
		t.Fatalf("component = %v, want along (1,1)", a)
	}
	if p.Dim() != 1 {
		t.Fatalf("Dim = %d, want 1", p.Dim())
	}
}

func TestPCAErrors(t *testing.T) {
	if _, err := PCAFromCov(nil, nil, 1); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := PCAFromCov([]float64{1, 2}, NewMatrix(2, 2), 0); err == nil {
		t.Fatal("expected error on k < 1")
	}
}

func TestPCAClampK(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 7}}
	p, err := PCAFromCov(Mean(x), Covariance(x), 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 2 {
		t.Fatalf("Dim = %d, want clamped to 2", p.Dim())
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	for i := 0; i < 50; i++ {
		x = append(x, []float64{rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2})
		x = append(x, []float64{10 + rng.NormFloat64()*0.2, 10 + rng.NormFloat64()*0.2})
	}
	res, err := KMeans(x, 2, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	// All even indices (cluster near origin) must share one label, odd the other.
	want := res.Assignment[0]
	for i := 0; i < len(x); i += 2 {
		if res.Assignment[i] != want {
			t.Fatalf("point %d assigned %d, want %d", i, res.Assignment[i], want)
		}
	}
	for i := 1; i < len(x); i += 2 {
		if res.Assignment[i] == want {
			t.Fatalf("point %d should be in the other cluster", i)
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 2, nil, 10); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := KMeans([][]float64{{1}}, 0, nil, 10); err == nil {
		t.Fatal("expected error on k < 1")
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	x := [][]float64{{0}, {5}}
	res, err := KMeans(x, 10, rand.New(rand.NewSource(1)), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 2 {
		t.Fatalf("centers = %d, want clamped to 2", len(res.Centers))
	}
	for i, c := range res.Assignment {
		if d := SqDist(x[i], res.Centers[c]); d != 0 {
			t.Fatalf("point %d is %v from its center, want 0 when every point is a center", i, d)
		}
	}
}

// Property: distance is symmetric and satisfies identity of indiscernibles.
func TestDistPropertySymmetry(t *testing.T) {
	f := func(a, b [4]float64) bool {
		av, bv := make([]float64, 4), make([]float64, 4)
		for i := range av {
			// Constrain magnitudes so squaring cannot overflow.
			av[i] = math.Mod(a[i], 1e6)
			bv[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(av[i]) {
				av[i] = 0
			}
			if math.IsNaN(bv[i]) {
				bv[i] = 0
			}
		}
		return almostEqual(SqDist(av, bv), SqDist(bv, av), 1e-12) && SqDist(av, av) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: covariance diagonal is non-negative.
func TestCovariancePropertyDiagonal(t *testing.T) {
	f := func(raw [6][3]float64) bool {
		x := make([][]float64, len(raw))
		for i := range raw {
			x[i] = raw[i][:]
		}
		c := Covariance(x)
		for i := range c {
			if c[i][i] < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: PCA projection of the mean is (numerically) the origin.
func TestPCAPropertyMeanMapsToOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		x := make([][]float64, 30)
		for i := range x {
			x[i] = []float64{rng.NormFloat64(), rng.NormFloat64() * 3, rng.NormFloat64() * 0.5}
		}
		p, err := PCAFromCov(Mean(x), Covariance(x), 2)
		if err != nil {
			t.Fatal(err)
		}
		// The projection centres on p.Mean: Σ_j axis[j]·(v[j] − Mean[j]).
		mean := Mean(x)
		for i, axis := range p.Components {
			var s float64
			for j, a := range axis {
				s += a * (mean[j] - p.Mean[j])
			}
			if math.Abs(s) > 1e-9 {
				t.Fatalf("projection of the mean on axis %d = %v, want 0", i, s)
			}
		}
	}
}
