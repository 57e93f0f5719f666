// Package cluster implements §3.5 of the paper: the seedless Pairwise
// Cluster Scheme (PCS) that agglomerates visually similar video scenes into
// clustered scenes, and the cluster-validity analysis (Eqs. 14–16) that
// picks the optimal cluster count inside [⌊0.5·M⌋, ⌊0.7·M⌋] — i.e. the
// clustering eliminates 30–50 % of the original scenes.
//
// Unlike K-means (the comparator the paper rejects), PCS needs no seeding
// and is order-independent: every step merges the globally most similar
// pair of clusters, with similarity measured between cluster centroids
// (representative groups, Eq. 13).
package cluster

import (
	"fmt"
	"math"

	"classminer/internal/structure"
	"classminer/internal/vidmodel"
)

// Options tunes ClusterScenes. The zero value reproduces the paper.
type Options struct {
	// N forces an explicit cluster count; 0 selects it with the validity
	// analysis of Eqs. (14)–(16).
	N int
}

// minFrac and maxFrac bound the searched cluster-count range as fractions of
// the scene count, as the paper sets them.
const (
	minFrac = 0.5
	maxFrac = 0.7
)

// Result carries the clustered scenes and the validity evidence.
type Result struct {
	Clusters []*vidmodel.ClusteredScene
	// Rho maps each evaluated cluster count to its validity score ρ(N)
	// (smaller is better). Empty when N was forced.
	Rho map[int]float64
	// OptimalN is the cluster count actually used.
	OptimalN int
}

// cl is the internal mutable cluster state during agglomeration.
type cl struct {
	scenes   []*vidmodel.Scene
	centroid *vidmodel.Group
}

// ClusterScenes groups visually similar scenes into clustered scenes with
// the Pairwise Cluster Scheme.
func ClusterScenes(scenes []*vidmodel.Scene, opts Options) (*Result, error) {
	m := len(scenes)
	if m == 0 {
		return nil, fmt.Errorf("cluster: no scenes")
	}
	clusters := make([]*cl, m)
	for i, s := range scenes {
		centroid := s.RepGroup
		if centroid == nil {
			centroid = structure.SelectRepGroup(s)
		}
		if centroid == nil {
			return nil, fmt.Errorf("cluster: scene %d has no groups", i)
		}
		clusters[i] = &cl{scenes: []*vidmodel.Scene{s}, centroid: centroid}
	}

	res := &Result{Rho: map[int]float64{}}
	targetN := opts.N
	cMin := int(minFrac * float64(m))
	cMax := int(maxFrac * float64(m))
	if cMin < 1 {
		cMin = 1
	}
	if cMax < cMin {
		cMax = cMin
	}
	if targetN > 0 {
		if targetN > m {
			targetN = m
		}
		cMin = targetN
	}

	type snapshot struct {
		n   int
		cls []*cl
	}
	var snaps []snapshot
	record := func() {
		n := len(clusters)
		withinRange := targetN == 0 && n >= cMin && n <= cMax
		forced := targetN > 0 && n == targetN
		if withinRange || forced {
			cp := make([]*cl, n)
			for i, c := range clusters {
				cp[i] = &cl{scenes: append([]*vidmodel.Scene(nil), c.scenes...), centroid: c.centroid}
			}
			snaps = append(snaps, snapshot{n: n, cls: cp})
		}
	}
	record()
	for len(clusters) > cMin {
		i, j := mostSimilarPair(clusters)
		if i < 0 {
			break
		}
		clusters = mergePair(clusters, i, j)
		record()
	}

	if len(snaps) == 0 {
		// Degenerate inputs (e.g. a single scene): one cluster per scene.
		snaps = append(snaps, snapshot{n: len(clusters), cls: clusters})
	}

	best := snaps[0]
	if targetN == 0 && len(snaps) > 1 {
		bestRho := math.Inf(1)
		for _, s := range snaps {
			r := validity(s.cls)
			res.Rho[s.n] = r
			if r < bestRho {
				bestRho, best = r, s
			}
		}
	}
	res.OptimalN = best.n
	for idx, c := range best.cls {
		res.Clusters = append(res.Clusters, &vidmodel.ClusteredScene{
			Index:    idx,
			Scenes:   c.scenes,
			RepGroup: c.centroid,
		})
	}
	return res, nil
}

// mostSimilarPair scans the centroid similarity matrix (Eq. 13) for the
// largest entry. Ties resolve to the first pair in row-major order, keeping
// the scheme deterministic.
func mostSimilarPair(clusters []*cl) (int, int) {
	bi, bj, best := -1, -1, -1.0
	for i := 0; i < len(clusters); i++ {
		for j := i + 1; j < len(clusters); j++ {
			if s := structure.GroupSim(clusters[i].centroid, clusters[j].centroid); s > best {
				bi, bj, best = i, j, s
			}
		}
	}
	return bi, bj
}

// mergePair fuses clusters i and j (i < j) and recomputes the centroid via
// SelectRepGroup over all member groups (§3.5 step 2).
func mergePair(clusters []*cl, i, j int) []*cl {
	merged := &cl{scenes: append(append([]*vidmodel.Scene(nil), clusters[i].scenes...), clusters[j].scenes...)}
	var groups []*vidmodel.Group
	for _, s := range merged.scenes {
		groups = append(groups, s.Groups...)
	}
	merged.centroid = structure.SelectRepGroup(&vidmodel.Scene{Groups: groups})
	out := make([]*cl, 0, len(clusters)-1)
	for k, c := range clusters {
		if k != i && k != j {
			out = append(out, c)
		}
	}
	return append(out, merged)
}

// validity computes ρ(N) of Eq. (14): the mean intra-cluster distance ς̄
// (Eq. 15, one minus the centroid–member similarity) plus the reciprocal of
// the largest inter-cluster distance ξ. Smaller ρ means tighter clusters
// that are further apart.
func validity(clusters []*cl) float64 {
	n := len(clusters)
	if n < 2 {
		return math.Inf(1)
	}
	var intra float64
	for _, c := range clusters {
		var s float64
		for _, sc := range c.scenes {
			rep := sc.RepGroup
			if rep == nil {
				rep = structure.SelectRepGroup(sc)
			}
			s += 1 - structure.GroupSim(c.centroid, rep)
		}
		intra += s / float64(len(c.scenes))
	}
	intra /= float64(n)
	var maxInter float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := 1 - structure.GroupSim(clusters[i].centroid, clusters[j].centroid); d > maxInter {
				maxInter = d
			}
		}
	}
	if maxInter <= 0 {
		return math.Inf(1)
	}
	return intra + 1/maxInter
}
