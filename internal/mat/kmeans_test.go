package mat

import (
	"math/rand"
	"testing"
)

// plainLloyd is Lloyd without Hamerly's bounds: every row's distance to
// every centre, every iteration. It is the reference Lloyd must equal bit
// for bit.
func plainLloyd(x [][]float64, centers [][]float64, maxIter int) *KMeansResult {
	if maxIter <= 0 {
		maxIter = 50
	}
	n, k := len(x), len(centers)
	assign := make([]int, n)
	res := &KMeansResult{Centers: centers, Assignment: assign}
	d := len(x[0])
	sums := NewMatrix(k, d)
	counts := make([]int, k)
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i, row := range x {
			best, bestD := 0, SqDist(row, centers[0])
			for c := 1; c < k; c++ {
				if d := SqDist(row, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for c := range sums {
			clear(sums[c])
		}
		clear(counts)
		for i, row := range x {
			c := assign[i]
			counts[c]++
			for j, v := range row {
				sums[c][j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				centers[c] = append([]float64(nil), farthestPoint(x, centers, assign)...)
				continue
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < d; j++ {
				centers[c][j] = sums[c][j] * inv
			}
		}
	}
	return res
}

// sameLloyd fails t unless Lloyd and plainLloyd, each from its own copy of
// centers, agree on iterations, assignments and every centre bit.
func sameLloyd(t *testing.T, x, centers [][]float64, maxIter int) {
	t.Helper()
	clone := func() [][]float64 {
		out := make([][]float64, len(centers))
		for c, v := range centers {
			out[c] = append([]float64(nil), v...)
		}
		return out
	}
	got, want := Lloyd(x, clone(), maxIter), plainLloyd(x, clone(), maxIter)
	if got.Iterations != want.Iterations {
		t.Fatalf("%d iterations, plain Lloyd %d", got.Iterations, want.Iterations)
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			t.Fatalf("row %d in cluster %d, plain Lloyd %d", i, got.Assignment[i], want.Assignment[i])
		}
	}
	for c := range want.Centers {
		if !sameBits(got.Centers[c], want.Centers[c]) {
			t.Fatalf("centre %d = %v, plain Lloyd %v", c, got.Centers[c], want.Centers[c])
		}
	}
}

// TestLloydMatchesPlain runs Lloyd where its bounds skip most rows: a few
// hundred rows in well-separated and in overlapping clusters, at the
// index's 16 dimensions and three centres and at more centres.
func TestLloydMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, spread := range []float64{0.05, 1, 4} {
		for _, k := range []int{1, 2, 3, 8} {
			const n, d = 600, 16
			x := NewMatrix(n, d)
			for i, row := range x {
				for j := range row {
					row[j] = float64(i%5) + rng.NormFloat64()*spread
				}
			}
			centers, err := KMeansSeeds(x, k, rng)
			if err != nil {
				t.Fatal(err)
			}
			sameLloyd(t, x, centers, 40)
		}
	}
}

// fuzzValue maps one byte to a coordinate: small integers (duplicates and
// exact ties), eighths, or a small integer scaled to 1e-150, where squared
// distances underflow, 1e-50, 1e150, where they overflow, or 1e307, where
// a centre's sum does.
func fuzzValue(b byte) float64 {
	switch b >> 6 {
	case 0:
		return float64(int(b&7) - 3)
	case 1:
		return float64(int(b&63)-32) / 8
	default:
		exp := []float64{1e-150, 1e-50, 1e150, 1e307}[b>>4&3]
		return float64(int(b&15)-8) * exp
	}
}

// FuzzLloyd holds Lloyd to plain Lloyd bit for bit — centres, assignments
// and iteration count — on rows with duplicates, exact ties, clusters that
// empty, and magnitudes at which squared distances or sums underflow or
// overflow. The first three bytes pick the row count, dimension and centre count,
// the fourth the iteration cap; the centres are the first k rows, shifted
// by the fifth byte so that one may start far from every row.
func FuzzLloyd(f *testing.F) {
	f.Add([]byte{12, 2, 3, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{6, 1, 3, 5, 200, 3, 3, 3, 3, 4, 4})
	f.Add([]byte{9, 3, 4, 40, 7, 64, 65, 66, 70, 80, 90, 100, 110, 120, 0, 1, 2})
	f.Add([]byte{20, 2, 2, 30, 0, 128, 129, 130, 131, 240, 241, 242, 243, 144, 145, 160, 161, 176, 177})
	f.Add([]byte{5, 4, 5, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{10, 1, 2, 20, 0, 0xf8, 0xf9, 0xfa, 0xb7, 0xf8, 1, 2, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n, d, k, maxIter := 1+int(data[0])%64, 1+int(data[1])%5, 1+int(data[2])%6, int(data[3])%60
		shift, vals := data[4], data[5:]
		if len(vals) == 0 {
			vals = []byte{0}
		}
		x := NewMatrix(n, d)
		at := 0
		for _, row := range x {
			for j := range row {
				row[j] = fuzzValue(vals[at%len(vals)])
				at++
			}
		}
		k = min(k, n)
		centers := NewMatrix(k, d)
		for c := range centers {
			copy(centers[c], x[c])
			if c == k-1 && shift&1 != 0 {
				centers[c][0] += fuzzValue(shift) * 1e3
			}
		}
		sameLloyd(t, x, centers, maxIter)
	})
}
