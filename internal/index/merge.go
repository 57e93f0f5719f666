package index

// Shard-merge helpers. A sharded library fans a search across independent
// per-shard indexes and merges the per-shard hit lists into one global
// ranking. The merge recomputes every candidate's exact full-space distance
// — the same number each shard's index already reports as Dist — and orders
// by the total order (distance, video name, shot index): entry IDs, which
// break ties inside one index, mean nothing across shards, so the merged
// ranking is deterministic and independent of how entries were partitioned.

import (
	"math"
	"sort"

	"classminer/internal/vidmodel"
)

// ShotSqDist is the exact full-dimension squared distance between a query
// and a shot's (colour ++ texture) feature, computed without materialising
// the concatenated vector. It is the distance every search result reports:
// Index.SearchInto, FlatSearch and MergeHits all rank by it.
func ShotSqDist(s *vidmodel.Shot, query []float64) float64 {
	return shotSqDistBounded(s, query, math.Inf(1))
}

// MergeHits merges per-shard hit lists into the global top-k, re-ranking
// every candidate with ShotSqDist and breaking ties by (video name, shot
// index) — a total order over the library, so the result is byte-identical
// no matter how the entries were sharded. k <= 0 keeps every candidate.
// The merged hits are appended to dst[:0] with exact full-space Dist
// values; lists is not modified.
func MergeHits(dst []Result, query []float64, lists [][]Result, k int) []Result {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	items := make([]mergeItem, 0, total)
	for _, l := range lists {
		for i := range l {
			e := l[i].Entry
			items = append(items, mergeItem{sq: shotSqDistBounded(e.Shot, query, math.Inf(1)), e: e})
		}
	}
	sort.Slice(items, func(i, j int) bool { return mergeLess(items[i], items[j]) })
	if k > 0 && len(items) > k {
		items = items[:k]
	}
	dst = dst[:0]
	for _, it := range items {
		dst = append(dst, Result{Entry: it.e, Dist: math.Sqrt(it.sq)})
	}
	return dst
}

// MergeCost reports the Stats cost of re-ranking the given per-shard lists:
// one exact distance per candidate. The router adds it to the summed
// per-shard stats so /v1/search cost accounting stays honest.
func MergeCost(lists [][]Result, queryDim int) Stats {
	var st Stats
	for _, l := range lists {
		st.DistanceOps += len(l)
		st.FloatOps += len(l) * queryDim
	}
	return st
}

type mergeItem struct {
	sq float64
	e  *Entry
}

func mergeLess(a, b mergeItem) bool {
	if a.sq != b.sq {
		return a.sq < b.sq
	}
	if a.e.VideoName != b.e.VideoName {
		return a.e.VideoName < b.e.VideoName
	}
	return a.e.Shot.Index < b.e.Shot.Index
}
