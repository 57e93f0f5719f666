package index

// The order a library answers in. Every search result reports the exact
// full-space distance as Dist, and a library returns its hits sorted by the
// total order (distance, video name, shot index): the order FlatSearch gives
// over entries registered in name order, which is how loadgen's oracle is
// built. An index breaks exact distance ties by entry id — registration order
// — which depends on history, not on the library's contents; the sort after
// the index has chosen its k makes the order of tied hits a function of the
// names alone.

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
// Index.Search and FlatSearch both rank by it.
func ShotSqDist(s *vidmodel.Shot, query []float64) float64 {
	var qmask []uint64
	if !s.Row.IsZero() {
		qmask = featrow.Mask(nil, query)
	}
	return shotSqDistBounded(s, query, qmask, math.Inf(1))
}

// SortHits sorts hits in place by (Dist, video name, shot index). It keeps
// which hits there are and changes only the order of exact distance ties;
// it allocates nothing.
func SortHits(hits []Result) {
	slices.SortFunc(hits, compareHits)
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
