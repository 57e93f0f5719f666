package index

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"classminer/internal/feature"
	"classminer/internal/vidmodel"
)

// forceParallel raises GOMAXPROCS so the sharded/batched code paths run
// their goroutine fan-out even on single-CPU machines (where they would
// otherwise fall back to the sequential path and go untested).
func forceParallel(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// singleLeafCorpus builds entries that all live under one leaf concept.
func singleLeafCorpus(n int, seed int64) []*Entry {
	rng := rand.New(rand.NewSource(seed))
	var out []*Entry
	for i := 0; i < n; i++ {
		c := make([]float64, feature.ColorBins)
		for j := 0; j < 6; j++ {
			c[(i*29+j)%feature.ColorBins] += 0.1 + rng.Float64()*0.05
		}
		normalise(c)
		tx := make([]float64, feature.TextureDims)
		tx[i%feature.TextureDims] = 1
		out = append(out, &Entry{
			VideoName: "v",
			Shot:      &vidmodel.Shot{Index: i, Start: i * 30, End: (i + 1) * 30, Color: c, Texture: tx},
			Path:      []string{"medical education", "medicine", "medicine/other"},
		})
	}
	return out
}

// TestHashExhaustedFallback asks a far-off query for more hits than the one
// visited leaf holds: every entry of the leaf must be bounded and returned
// exactly once (the refine must not spend a second exact distance on a row
// that seeded it), in distance order.
func TestHashExhaustedFallback(t *testing.T) {
	entries := singleLeafCorpus(5, 21)
	ix, err := Build(entries, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// A query with all histogram mass in one far-off bin projects well away
	// from the data's hash cells.
	q := make([]float64, feature.ColorBins+feature.TextureDims)
	q[feature.ColorBins-1] = 40
	q[feature.ColorBins] = -35
	res, stats := ix.Search(q, 10)
	if len(res) != len(entries) {
		t.Fatalf("fallback results = %d, want all %d leaf entries", len(res), len(entries))
	}
	if stats.Candidates != len(entries) {
		t.Fatalf("fallback candidates = %d, want %d", stats.Candidates, len(entries))
	}
	seen := map[*Entry]bool{}
	for i, r := range res {
		seen[r.Entry] = true
		if i > 0 && res[i-1].Dist > r.Dist {
			t.Fatalf("results not sorted at %d: %v > %v", i, res[i-1].Dist, r.Dist)
		}
	}
	if len(seen) != len(entries) {
		t.Fatalf("fallback returned duplicates: %d unique of %d", len(seen), len(res))
	}
}

// TestBeamCrossLeafRanking exercises beam > 1: every visited leaf bounds its
// rows in its own reduced space, and the refine ranks rows of all of them
// in one list ordered by exact distance.
func TestBeamCrossLeafRanking(t *testing.T) {
	entries := corpus(120, 22) // 6 leaves, 20 entries each
	ix, err := Build(entries, Options{Seed: 22, Beam: 3})
	if err != nil {
		t.Fatal(err)
	}
	leafOf := func(e *Entry) string { return e.Path[len(e.Path)-1] }
	q := entries[0].Shot.Feature()
	res, _ := ix.Search(q, 60)
	if len(res) < 30 {
		t.Fatalf("beam search returned %d results", len(res))
	}
	leaves := map[string]bool{}
	for i, r := range res {
		leaves[leafOf(r.Entry)] = true
		if i > 0 && res[i-1].Dist > r.Dist {
			t.Fatalf("cross-leaf ranking unsorted at %d: %v > %v", i, res[i-1].Dist, r.Dist)
		}
	}
	if len(leaves) < 2 {
		t.Fatalf("beam=3 search stayed inside one leaf: %v", leaves)
	}
	// Widening the beam must not change what the primary leaf contributes:
	// the same query with beam 1 finds the same nearest entry.
	ix1, err := Build(entries, Options{Seed: 22, Beam: 1})
	if err != nil {
		t.Fatal(err)
	}
	res1, _ := ix1.Search(q, 5)
	if res[0].Entry != res1[0].Entry || res[0].Dist != res1[0].Dist {
		t.Fatalf("beam-3 top hit %v != beam-1 top hit %v", res[0], res1[0])
	}
}

// TestSearchReportsExactDistance pins what Dist means: the full-space
// Euclidean distance ShotSqDist computes, bit for bit — FlatSearch reports
// the same number for the same shot, and the shard router merges on it
// without recomputing — so a query-by-example that finds its example ranks
// it first at distance 0.
func TestSearchReportsExactDistance(t *testing.T) {
	entries := multiLeafCorpus(28, 90)
	ix, err := Build(entries, Options{Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	ix = mustInsert(t, ix, corpusEntry(0, "late", 0, rand.New(rand.NewSource(28))))
	self := 0
	for i, e := range ix.all {
		q := e.Shot.Feature()
		if i%2 == 1 {
			q[i%len(q)] += 0.01 // a near-duplicate, not an example
		}
		res, _ := ix.Search(q, 10)
		for j, r := range res {
			if want := math.Sqrt(ShotSqDist(r.Entry.Shot, q)); r.Dist != want {
				t.Fatalf("query %d hit %d: Dist %v, exact distance %v", i, j, r.Dist, want)
			}
			if r.Entry == e && i%2 == 0 {
				self++
				if j != 0 || r.Dist != 0 {
					t.Fatalf("query %d: its example ranks %d at distance %v", i, j, r.Dist)
				}
			}
		}
	}
	if self < len(ix.all)/2*9/10 {
		t.Fatalf("only %d of %d examples found themselves", self, len(ix.all)/2)
	}
}

// tieCorpus builds entries where many shots share identical features, so
// ranking is dominated by tie-breaking.
func tieCorpus(n int) []*Entry {
	var out []*Entry
	for i := 0; i < n; i++ {
		c := make([]float64, feature.ColorBins)
		// Only 3 distinct feature vectors across n entries: heavy ties.
		c[(i%3)*10] = 1
		tx := make([]float64, feature.TextureDims)
		tx[0] = 1
		out = append(out, &Entry{
			VideoName: "tie",
			Shot:      &vidmodel.Shot{Index: i, Color: c, Texture: tx},
			Path:      []string{"medical education", "medicine", "medicine/other"},
		})
	}
	return out
}

// TestTopKHeapMatchesFullSortOnTies verifies the bounded-heap top-k agrees
// with a full (dist, position) sort even when nearly all distances tie:
// identical distance sequence, and identical entries wherever the tie-break
// order is defined.
func TestTopKHeapMatchesFullSortOnTies(t *testing.T) {
	entries := tieCorpus(90)
	q := entries[0].Shot.Feature()
	full, _ := FlatSearch(entries, q, 0) // ranks the whole database
	pos := map[*Entry]int{}
	for i, e := range entries {
		pos[e] = i
	}
	ref := append([]Result(nil), full...)
	sort.SliceStable(ref, func(a, b int) bool {
		if ref[a].Dist != ref[b].Dist {
			return ref[a].Dist < ref[b].Dist
		}
		return pos[ref[a].Entry] < pos[ref[b].Entry]
	})
	for _, k := range []int{1, 7, 30, 89, 90} {
		top, _ := FlatSearch(entries, q, k)
		if len(top) != k {
			t.Fatalf("k=%d: got %d results", k, len(top))
		}
		for i := range top {
			if top[i].Dist != ref[i].Dist {
				t.Fatalf("k=%d hit %d: dist %v, full sort %v", k, i, top[i].Dist, ref[i].Dist)
			}
			if top[i].Entry != ref[i].Entry {
				t.Fatalf("k=%d hit %d: entry %d, full sort %d",
					k, i, pos[top[i].Entry], pos[ref[i].Entry])
			}
		}
	}
}

// TestFlatSearchMatchesNaiveScan pins the sharded parallel scan against a
// naive single-threaded reference over a corpus large enough to shard.
func TestFlatSearchMatchesNaiveScan(t *testing.T) {
	forceParallel(t)
	entries := corpus(2000, 23)
	q := entries[777].Shot.Feature()
	got, stats := FlatSearch(entries, q, 25)
	if stats.DistanceOps != 2000 || stats.Candidates != 2000 {
		t.Fatalf("stats = %+v", stats)
	}
	type ref struct {
		idx  int
		dist float64
	}
	refs := make([]ref, len(entries))
	for i, e := range entries {
		var s float64
		f := e.Shot.Feature()
		for j := range f {
			d := q[j] - f[j]
			s += d * d
		}
		refs[i] = ref{idx: i, dist: math.Sqrt(s)}
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].dist != refs[b].dist {
			return refs[a].dist < refs[b].dist
		}
		return refs[a].idx < refs[b].idx
	})
	if len(got) != 25 {
		t.Fatalf("results = %d", len(got))
	}
	for i, r := range got {
		if math.Abs(r.Dist-refs[i].dist) > 1e-9 {
			t.Fatalf("hit %d: dist %v, reference %v", i, r.Dist, refs[i].dist)
		}
		if r.Entry != entries[refs[i].idx] {
			t.Fatalf("hit %d: wrong entry", i)
		}
	}
}

// TestSearchBatchMatchesSearch verifies the concurrent batch path returns
// exactly what sequential Search returns, query by query.
func TestSearchBatchMatchesSearch(t *testing.T) {
	forceParallel(t)
	entries := corpus(300, 24)
	ix, err := Build(entries, Options{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	var queries [][]float64
	for i := 0; i < 40; i++ {
		q := append([]float64(nil), entries[rng.Intn(len(entries))].Shot.Feature()...)
		q[rng.Intn(len(q))] += rng.Float64() * 0.02
		queries = append(queries, q)
	}
	batch, bstats := ix.SearchBatch(queries, 8)
	if len(batch) != len(queries) {
		t.Fatalf("batch results = %d", len(batch))
	}
	for i, q := range queries {
		single, sstats := ix.Search(q, 8)
		if len(batch[i]) != len(single) {
			t.Fatalf("query %d: batch %d hits, single %d", i, len(batch[i]), len(single))
		}
		for j := range single {
			if batch[i][j].Entry != single[j].Entry || batch[i][j].Dist != single[j].Dist {
				t.Fatalf("query %d hit %d: batch %+v, single %+v", i, j, batch[i][j], single[j])
			}
		}
		if bstats[i] != sstats {
			t.Fatalf("query %d: batch stats %+v, single %+v", i, bstats[i], sstats)
		}
	}
}

// TestSearchIntoZeroAlloc asserts the acceptance criterion directly:
// steady-state SearchInto with a reused result buffer performs no heap
// allocations.
func TestSearchIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	entries := corpus(600, 26)
	ix, err := Build(entries, Options{Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	q := entries[11].Shot.Feature()
	dst := make([]Result, 0, 16)
	// Warm the scratch pool and the dst capacity.
	for i := 0; i < 8; i++ {
		dst, _ = ix.SearchInto(dst, q, 10)
	}
	avg := testing.AllocsPerRun(200, func() {
		dst, _ = ix.SearchInto(dst, q, 10)
	})
	// A GC between runs can steal pooled scratch, so allow a tiny average;
	// steady state must still round to zero.
	if avg >= 1 {
		t.Fatalf("SearchInto allocates %.2f objects per call, want 0", avg)
	}
}

// TestBuildMatrixErrors covers the flat-matrix construction contract.
func TestBuildMatrixErrors(t *testing.T) {
	entries := corpus(12, 27)
	if _, err := BuildMatrix(entries, nil, Options{}); err == nil {
		t.Fatal("want error on nil feature matrix")
	}
	ix, err := Build(entries, Options{Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 12 {
		t.Fatalf("size = %d", ix.Size())
	}
}

// BenchmarkIndexSearch is the steady-state hot path: SearchInto with a
// reused result buffer must report 0 allocs/op.
func BenchmarkIndexSearch(b *testing.B) {
	entries := corpus(1200, 10)
	ix, err := Build(entries, Options{Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	q := entries[17].Shot.Feature()
	dst := make([]Result, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = ix.SearchInto(dst, q, 10)
	}
}

// BenchmarkIndexSearchBatch measures the parallel fan-out over one index.
func BenchmarkIndexSearchBatch(b *testing.B) {
	entries := corpus(1200, 12)
	ix, err := Build(entries, Options{Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 32)
	for i := range queries {
		queries[i] = entries[(i*37)%len(entries)].Shot.Feature()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchBatch(queries, 10)
	}
}
