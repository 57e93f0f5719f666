package mat

import (
	"fmt"
	"math/rand"
)

// KMeansResult holds the outcome of a k-means run.
type KMeansResult struct {
	Centers    [][]float64 // k cluster centers
	Assignment []int       // index of the center owning each input row
	Inertia    float64     // sum of squared distances to owning centers
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
func Lloyd(x [][]float64, centers [][]float64, maxIter int) *KMeansResult {
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
		res.Inertia = 0
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
			res.Inertia += bestD
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
	}
	return res
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
