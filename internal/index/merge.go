package index

// Shard-merge helpers. A sharded library fans a search across independent
// per-shard indexes and merges the per-shard hit lists into one global
// ranking. Every index reports the exact full-space distance as Dist, so
// the merge recomputes nothing: it orders what the shards report by the
// total order (distance, video name, shot index). Entry IDs, which break
// ties inside one index, mean nothing across shards, so this order is what
// makes the merged ranking deterministic and independent of how entries
// were partitioned.

import (
	"cmp"
	"math"
	"slices"

	"classminer/internal/featrow"
	"classminer/internal/vidmodel"
)

// ShotSqDist is the exact full-dimension squared distance between a query
// and a shot's (colour ++ texture) feature, computed without materialising
// the concatenated vector. It is the distance every search result reports:
// Index.SearchInto and FlatSearch both rank by it.
func ShotSqDist(s *vidmodel.Shot, query []float64) float64 {
	var qmask []uint64
	if !s.Row.IsZero() {
		qmask = featrow.Mask(nil, query)
	}
	return shotSqDistBounded(s, query, qmask, math.Inf(1))
}

// MergeHits merges per-shard hit lists into the global top-k: the lists are
// appended to dst — which may already hold one shard's hits — and dst is
// sorted in place by (Dist, video name, shot index) and cut to k (k <= 0
// keeps every hit). That is a total order over the library, so the result
// is byte-identical no matter how the entries were sharded, one shard
// included. It differs from a single index's own order only on exact
// distance ties, which an index breaks by entry id (registration order);
// the sort runs even over a single list so those ties never depend on the
// shard count. lists is not modified.
func MergeHits(dst []Result, lists [][]Result, k int) []Result {
	for _, l := range lists {
		dst = append(dst, l...)
	}
	slices.SortFunc(dst, compareHits)
	if k > 0 && len(dst) > k {
		dst = dst[:k]
	}
	return dst
}

func compareHits(a, b Result) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Entry.VideoName, b.Entry.VideoName); c != 0 {
		return c
	}
	return cmp.Compare(a.Entry.Shot.Index, b.Entry.Shot.Index)
}
