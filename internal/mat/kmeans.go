package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// KMeansResult holds the outcome of a k-means run.
type KMeansResult struct {
	Centers    [][]float64 // k cluster centers
	Assignment []int       // index of the center owning each input row
	Iterations int         // Lloyd iterations actually performed
}

// KMeans clusters the rows of x into k clusters using Lloyd's algorithm with
// k-means++ seeding. The rng makes runs reproducible; pass a deterministic
// source. When k >= len(x) every point becomes its own center.
//
// The paper (§2) uses multiple centers per non-leaf database node because
// high-level concepts mix several visual components; this routine computes
// those centers. It is also the seeded comparator the Pairwise Cluster
// Scheme is evaluated against (§3.5 ablation).
func KMeans(x [][]float64, k int, rng *rand.Rand, maxIter int) (*KMeansResult, error) {
	centers, err := KMeansSeeds(x, k, rng)
	if err != nil {
		return nil, err
	}
	return Lloyd(x, centers, maxIter), nil
}

// KMeansSeeds picks KMeans' k initial centers by k-means++ seeding. It is the
// only part of KMeans that draws from rng: a caller running several
// clusterings can seed them one after another from one source and then run
// their Lloyd refinements concurrently, and gets what KMeans would have
// returned run by run.
func KMeansSeeds(x [][]float64, k int, rng *rand.Rand) ([][]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("mat: KMeans on empty data")
	}
	if k < 1 {
		return nil, fmt.Errorf("mat: KMeans needs k >= 1, got %d", k)
	}
	if k > n {
		k = n
	}
	return seedPlusPlus(x, k, rng), nil
}

// Lloyd refines centers over the rows of x by Lloyd's algorithm for at most
// maxIter iterations (50 when maxIter <= 0). It updates centers in place and
// returns them in the result; it draws no random numbers.
//
// It keeps Hamerly's bounds: per row u, an upper bound on its distance to
// its centre, and l, a lower bound on its distance to every other centre;
// per centre s, half its distance to the nearest other one. A row whose u
// is below max(s, l) keeps its centre, and its distances are not computed.
// Only a strict test with a slack far wider than the bounds' rounding
// skips a row (keeps), so every row skipped is one whose computed distances
// would have kept its centre: centres, assignments and iteration count are
// plain Lloyd's — each row to the nearest centre, ties to the lower index —
// bit for bit.
func Lloyd(x [][]float64, centers [][]float64, maxIter int) *KMeansResult {
	if maxIter <= 0 {
		maxIter = 50
	}
	n, k := len(x), len(centers)
	assign := make([]int, n)
	res := &KMeansResult{Centers: centers, Assignment: assign}
	d := len(x[0])
	sums, prev := NewMatrix(k, d), NewMatrix(k, d)
	counts := make([]int, k)
	upper, lower := make([]float64, n), make([]float64, n)
	half, moved := make([]float64, k), make([]float64, k)
	var drift float64 // Σ over iterations of the largest centre move
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i, row := range x {
			a := assign[i]
			if iter > 0 {
				m := max(half[a], lower[i])
				if keeps(upper[i], m, drift) {
					continue
				}
				if upper[i] = math.Sqrt(SqDist(row, centers[a])); keeps(upper[i], m, drift) {
					continue
				}
			}
			best, bestD, second := 0, SqDist(row, centers[0]), math.Inf(1)
			for c := 1; c < k; c++ {
				if d := SqDist(row, centers[c]); d < bestD {
					best, bestD, second = c, d, bestD
				} else if d < second {
					second = d
				}
			}
			upper[i], lower[i] = math.Sqrt(bestD), math.Sqrt(second)
			if a != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for c := range sums {
			clear(sums[c])
			copy(prev[c], centers[c])
		}
		clear(counts)
		for i, row := range x {
			c := assign[i]
			counts[c]++
			sum := sums[c][:len(row)]
			for j, v := range row {
				sum[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster with the point farthest from
				// its current center, the usual guard against collapse.
				centers[c] = append([]float64(nil), farthestPoint(x, centers, assign)...)
				continue
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < d; j++ {
				centers[c][j] = sums[c][j] * inv
			}
		}
		// Move the bounds with the centres: u grows by its centre's move, l
		// shrinks by the largest move of any other centre. A move that is
		// not finite (a centre that overflowed) makes drift +Inf, and from
		// then on keeps keeps no row.
		far, far2, farAt := 0.0, 0.0, -1
		for c := range centers {
			m := math.Sqrt(SqDist(prev[c], centers[c]))
			moved[c] = m
			if !(m < math.Inf(1)) {
				drift = math.Inf(1)
			}
			if m > far {
				far, far2, farAt = m, far, c
			} else if m > far2 {
				far2 = m
			}
		}
		drift += far
		for i, a := range assign {
			upper[i] += moved[a]
			if a == farAt {
				lower[i] -= far2
			} else {
				lower[i] -= far
			}
		}
		for c := range half {
			half[c] = math.Inf(1)
			for c2 := range centers {
				if c2 != c {
					half[c] = min(half[c], math.Sqrt(SqDist(centers[c], centers[c2]))/2)
				}
			}
		}
	}
	return res
}

// The slack of Lloyd's bound test. Each bound is a sum of at most one
// distance per iteration, each rounded by a few ulps per dimension, so the
// bounds stray from the exact ones by far less than boundSlack of the
// magnitudes in play; within [boundFloor, boundCeil] no squared distance
// underflows or overflows.
const (
	boundSlack = 1e-9
	boundFloor = 1e-140
	boundCeil  = 1e140
)

// keeps reports whether a row whose distance to its centre is at most u,
// and to every other centre at least m, keeps its centre under plain
// Lloyd's computed distances. drift, the sum of the largest move of each
// iteration, bounds what the bounds' rounding has accumulated. NaN or +Inf
// in any of them keeps nothing.
func keeps(u, m, drift float64) bool {
	return m > boundFloor && m < boundCeil && u+boundSlack*(u+m+drift) < m
}

func seedPlusPlus(x [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(x)
	centers := make([][]float64, 0, k)
	first := 0
	if rng != nil {
		first = rng.Intn(n)
	}
	centers = append(centers, append([]float64(nil), x[first]...))
	dist := make([]float64, n)
	for len(centers) < k {
		var total float64
		for i, row := range x {
			d := SqDist(row, centers[0])
			for _, c := range centers[1:] {
				if dd := SqDist(row, c); dd < d {
					d = dd
				}
			}
			dist[i] = d
			total += d
		}
		idx := 0
		if total > 0 {
			var target float64
			if rng != nil {
				target = rng.Float64() * total
			} else {
				target = total / 2
			}
			var acc float64
			for i, d := range dist {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		centers = append(centers, append([]float64(nil), x[idx]...))
	}
	return centers
}

func farthestPoint(x [][]float64, centers [][]float64, assign []int) []float64 {
	bestIdx, bestD := 0, -1.0
	for i, row := range x {
		d := SqDist(row, centers[assign[i]])
		if d > bestD {
			bestIdx, bestD = i, d
		}
	}
	return x[bestIdx]
}
