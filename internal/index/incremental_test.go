package index

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"classminer/internal/feature"
	"classminer/internal/vidmodel"
)

// corpusEntry fabricates one entry shaped like corpus()'s cluster pi, so
// inserted entries are drawn from the same distribution the index was fit
// on.
func corpusEntry(pi int, video string, shotIdx int, rng *rand.Rand) *Entry {
	paths := [][]string{
		{"medical education", "medicine", "medicine/presentation"},
		{"medical education", "medicine", "medicine/dialog"},
		{"medical education", "medicine", "medicine/clinical operation"},
		{"medical education", "nursing", "nursing/dialog"},
		{"health care", "health care/general"},
		{"medical report", "medical report/general"},
	}
	pi = pi % len(paths)
	c := make([]float64, feature.ColorBins)
	base := (pi*37 + 11) % (feature.ColorBins - 8)
	for j := 0; j < 6; j++ {
		c[base+j] += 0.12 + rng.Float64()*0.04
	}
	c[rng.Intn(feature.ColorBins)] += 0.05
	normalise(c)
	tx := make([]float64, feature.TextureDims)
	tx[pi%feature.TextureDims] = 0.8
	tx[(pi+3)%feature.TextureDims] = 0.2
	return &Entry{
		VideoName: video,
		Shot:      &vidmodel.Shot{Index: shotIdx, Start: shotIdx * 30, End: (shotIdx + 1) * 30, Color: c, Texture: tx},
		Path:      paths[pi],
	}
}

func mustInsert(t testing.TB, ix *Index, e *Entry) *Index {
	t.Helper()
	nix, err := ix.Insert(e)
	if err != nil {
		t.Fatal(err)
	}
	return nix
}

// TestInsertMakesEntrySearchable: an inserted entry is the top self-query
// hit immediately, with no rebuild.
func TestInsertMakesEntrySearchable(t *testing.T) {
	entries := corpus(120, 1)
	ix, err := Build(entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var added []*Entry
	for i := 0; i < 18; i++ {
		e := corpusEntry(i, fmt.Sprintf("new-%d", i%6), 1000+i, rng)
		added = append(added, e)
		ix = mustInsert(t, ix, e)
	}
	if got := ix.Size(); got != 120+18 {
		t.Fatalf("Size = %d, want %d", got, 138)
	}
	for _, e := range added {
		res, _ := ix.Search(nil, e.Shot.Feature(), 1, nil)
		if len(res) == 0 || res[0].Entry != e {
			t.Fatalf("inserted entry %s/%d not top self-query hit", e.VideoName, e.Shot.Index)
		}
	}
	if s := ix.Staleness(); s <= 0 || s > 0.2 {
		t.Fatalf("Staleness = %v, want (0, 0.2]", s)
	}
}

// TestRemoveMasksEntries: removed videos stop appearing in results while
// the previous index of the chain still serves them.
func TestRemoveMasksEntries(t *testing.T) {
	entries := corpus(120, 2)
	ix, err := Build(entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	victim := "video-0"
	var q []float64
	for _, e := range entries {
		if e.VideoName == victim {
			q = e.Shot.Feature()
			break
		}
	}
	nix, n := ix.Remove(victim)
	if n == 0 {
		t.Fatal("Remove reported no entries masked")
	}
	if nix.Size() != ix.Size()-n {
		t.Fatalf("Size after remove = %d, want %d", nix.Size(), ix.Size()-n)
	}
	// Old index still ranks the victim; the new one never does.
	res, _ := ix.Search(nil, q, 10, nil)
	found := false
	for _, h := range res {
		if h.Entry.VideoName == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("old index lost the victim (copy-on-write broken)")
	}
	res, _ = nix.Search(nil, q, 10, nil)
	for _, h := range res {
		if h.Entry.VideoName == victim {
			t.Fatalf("removed video %q still ranked", victim)
		}
	}
	// Removing again is a no-op returning the same index.
	again, n2 := nix.Remove(victim)
	if n2 != 0 || again != nix {
		t.Fatalf("second Remove = (%p, %d), want identity no-op", again, n2)
	}
}

// searchAllEqual requires two indexes to answer a query set identically:
// same entries, distances and per-query stats.
func searchAllEqual(t *testing.T, a, b *Index, queries []*Entry, k int) {
	t.Helper()
	for _, q := range queries {
		ra, sa := a.Search(nil, q.Shot.Feature(), k, nil)
		rb, sb := b.Search(nil, q.Shot.Feature(), k, nil)
		if len(ra) != len(rb) || sa != sb {
			t.Fatalf("%d hits %+v vs %d hits %+v", len(ra), sa, len(rb), sb)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("hit %d: %s/%d@%g vs %s/%d@%g", i, ra[i].Entry.VideoName, ra[i].Entry.Shot.Index, ra[i].Dist,
					rb[i].Entry.VideoName, rb[i].Entry.Shot.Index, rb[i].Dist)
			}
		}
	}
}

// TestInsertAllMatchesInsertChain: the batch form is the chain of single
// inserts — same IDs, same answers, same stats — and is all or nothing.
func TestInsertAllMatchesInsertChain(t *testing.T) {
	entries := corpus(180, 6)
	ix, err := Build(entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var batch []*Entry
	for i := 0; i < 25; i++ { // one video's shots over four leaves
		batch = append(batch, corpusEntry(i%4, "batch", 5000+i, rng))
	}
	chain := ix
	for _, e := range batch {
		chain = mustInsert(t, chain, e)
	}
	all, err := ix.InsertAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	if all.Size() != chain.Size() || all.Staleness() != chain.Staleness() || ix.Size() != 180 {
		t.Fatalf("sizes %d / %d (receiver %d)", all.Size(), chain.Size(), ix.Size())
	}
	for i, e := range batch {
		if all.all[180+i] != e {
			t.Fatalf("entry %d did not take ID %d", i, 180+i)
		}
	}
	searchAllEqual(t, all, chain, append(batch[:8:8], entries[:8]...), 12)

	// One unroutable entry refuses the whole batch and leaves the receiver
	// as it was.
	bad := corpusEntry(0, "batch", 9999, rng)
	bad.Path = []string{"medical education", "dentistry", "dentistry/dialog"}
	if _, err := all.InsertAll(append(batch[:3:3], bad)); !errors.Is(err, ErrNoLeaf) {
		t.Fatalf("InsertAll with an unroutable entry = %v, want ErrNoLeaf", err)
	}
	searchAllEqual(t, all, chain, batch[:4], 12)
	if same, err := all.InsertAll(nil); err != nil || same != all {
		t.Fatalf("empty InsertAll = (%p, %v), want the receiver", same, err)
	}
}

// TestRemoveIDsMatchesRemove: masking a video by the IDs its entries hold is
// masking it by name; IDs the index does not hold or already masks are
// skipped; and the paged mask is copy-on-write across a page boundary.
func TestRemoveIDsMatchesRemove(t *testing.T) {
	n := 1<<maskPageShift + 600 // two mask pages
	entries := corpus(n, 7)
	ix, err := Build(entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int32
	for i, e := range entries {
		if e.VideoName == "video-2" {
			ids = append(ids, int32(i))
		}
	}
	byName, nName := ix.Remove("video-2")
	byID, nID := ix.RemoveIDs(append([]int32{-1, int32(n), int32(n + 5000)}, append(ids, ids[0])...))
	if nID != nName || nID != len(ids) || byID.Size() != byName.Size() {
		t.Fatalf("RemoveIDs masked %d, Remove %d, the video has %d", nID, nName, len(ids))
	}
	searchAllEqual(t, byID, byName, entries[:24], 10)
	for _, e := range entries[:24] {
		res, _ := byID.Search(nil, e.Shot.Feature(), 10, nil)
		for _, h := range res {
			if h.Entry.VideoName == "video-2" {
				t.Fatal("masked video still ranked")
			}
		}
	}
	// A second removal touches pages the first index shares: the first must
	// not see it.
	last := int32(n - 1)
	second, n2 := byID.RemoveIDs([]int32{0, last})
	if n2 != 2 || masked(byID.removed, 0) || masked(byID.removed, last) || !masked(second.removed, 0) || !masked(second.removed, last) {
		t.Fatalf("second removal masked %d; parent sees it: %v/%v", n2, masked(byID.removed, 0), masked(byID.removed, last))
	}
	for _, id := range ids {
		if !masked(second.removed, id) || masked(ix.removed, id) {
			t.Fatalf("ID %d: carried over %v, leaked into the parent %v", id, masked(second.removed, id), masked(ix.removed, id))
		}
	}
	if again, n3 := second.RemoveIDs(ids); n3 != 0 || again != second {
		t.Fatalf("re-removing masked IDs = (%p, %d), want identity no-op", again, n3)
	}
}

// TestInsertRejectsUnknownPath: a path with no leaf in the built tree needs
// a full rebuild and must say so.
func TestInsertRejectsUnknownPath(t *testing.T) {
	ix, err := Build(corpus(60, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	e := corpusEntry(0, "new", 999, rng)
	e.Path = []string{"medical education", "dentistry", "dentistry/dialog"}
	if _, err := ix.Insert(e); !errors.Is(err, ErrNoLeaf) {
		t.Fatalf("Insert with unknown path = %v, want ErrNoLeaf", err)
	}
	// A path stopping at a non-leaf is equally unroutable.
	e.Path = []string{"medical education", "medicine"}
	if _, err := ix.Insert(e); !errors.Is(err, ErrNoLeaf) {
		t.Fatalf("Insert with non-leaf path = %v, want ErrNoLeaf", err)
	}
	// Dimension mismatches are refused before any mutation.
	bad := corpusEntry(0, "bad", 1000, rng)
	bad.Shot.Texture = bad.Shot.Texture[:feature.TextureDims-1]
	if _, err := ix.Insert(bad); err == nil {
		t.Fatal("Insert with wrong dimensionality succeeded")
	}
}

// TestIncrementalMatchesRebuild is the golden equivalence check: a chain of
// inserts and removes answers queries with the same hit sets as an index
// rebuilt from scratch over the same final entry list. Distances in the
// incremental index come from the *old* fit's reduced spaces, so only hit
// identity (which is what a user sees) is compared, on well-separated
// queries.
func TestIncrementalMatchesRebuild(t *testing.T) {
	base := corpus(180, 4)
	ix, err := Build(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	live := append([]*Entry(nil), base...)
	for i := 0; i < 24; i++ {
		e := corpusEntry(i, fmt.Sprintf("delta-%d", i%6), 2000+i, rng)
		live = append(live, e)
		ix = mustInsert(t, ix, e)
	}
	victim := "video-3"
	ix, _ = ix.Remove(victim)
	kept := live[:0]
	for _, e := range live {
		if e.VideoName != victim {
			kept = append(kept, e)
		}
	}
	rebuilt, err := Build(kept, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The refit learns slightly different reduced spaces, which legitimately
	// reorders near-ties deep in the ranking; what must hold is that the
	// nearest answer (a self-query's own shot, distance zero in any space)
	// is identical, and that the top-5 candidate *sets* overlap strongly.
	// (The exact-equality golden test lives at the library level, over
	// geometrically separated data — see TestIncrementalGoldenEquivalence.)
	const queries = 40
	top1 := 0
	overlap, possible := 0, 0
	key := func(r Result) string { return fmt.Sprintf("%s/%d", r.Entry.VideoName, r.Entry.Shot.Index) }
	for qi := 0; qi < queries; qi++ {
		q := kept[(qi*17)%len(kept)].Shot.Feature()
		a, _ := ix.Search(nil, q, 5, nil)
		b, _ := rebuilt.Search(nil, q, 5, nil)
		if len(a) > 0 && len(b) > 0 && key(a[0]) == key(b[0]) {
			top1++
		}
		in := map[string]bool{}
		for _, r := range a {
			in[key(r)] = true
		}
		for _, r := range b {
			if in[key(r)] {
				overlap++
			}
		}
		possible += len(b)
	}
	if top1 < queries*9/10 {
		t.Fatalf("top-1 agreement %d/%d, want >= %d", top1, queries, queries*9/10)
	}
	if overlap*10 < possible*6 {
		t.Fatalf("top-5 set overlap %d/%d, want >= 60%%", overlap, possible)
	}
	for _, h := range mustSearchAll(t, ix, kept) {
		if h.Entry.VideoName == victim {
			t.Fatalf("victim %q resurfaced", victim)
		}
	}
}

func mustSearchAll(t *testing.T, ix *Index, kept []*Entry) []Result {
	t.Helper()
	var out []Result
	for i := 0; i < 10; i++ {
		res, _ := ix.Search(nil, kept[i*7%len(kept)].Shot.Feature(), 8, nil)
		out = append(out, res...)
	}
	return out
}

// TestInsertConcurrentWithSearch: searches against every index of a
// copy-on-write chain race with the single writer extending it. Run with
// -race; the invariant is that a snapshot always answers from its own
// entry set.
func TestInsertConcurrentWithSearch(t *testing.T) {
	entries := corpus(120, 5)
	ix, err := Build(entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := entries[0].Shot.Feature()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(snapshot *Index) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, _ := snapshot.Search(nil, q, 5, nil)
				if len(res) == 0 {
					t.Error("snapshot search returned nothing")
					return
				}
			}
		}(ix)
	}
	rng := rand.New(rand.NewSource(5))
	cur := ix
	for i := 0; i < 64; i++ {
		cur = mustInsert(t, cur, corpusEntry(i, fmt.Sprintf("w-%d", i%6), 3000+i, rng))
		if i%16 == 0 {
			cur, _ = cur.Remove(fmt.Sprintf("w-%d", (i/16)%6))
		}
		res, _ := cur.Search(nil, q, 5, nil)
		if len(res) == 0 {
			t.Fatal("chained index search returned nothing")
		}
	}
	close(stop)
	wg.Wait()
}

// TestSearchIntoZeroAllocAfterInsert: once the shared scratch pool has
// warmed up to the post-insert sizes, Search allocates nothing.
func TestSearchIntoZeroAllocAfterInsert(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	forceParallel(t)
	entries := corpus(240, 6)
	ix, err := Build(entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 80; i++ {
		ix = mustInsert(t, ix, corpusEntry(i, fmt.Sprintf("z-%d", i%6), 4000+i, rng))
	}
	q := entries[3].Shot.Feature()
	dst := make([]Result, 0, 16)
	for i := 0; i < 8; i++ { // warm the pool to the grown bitset size
		dst, _ = ix.Search(dst[:0], q, 10, nil)
	}
	avg := testing.AllocsPerRun(200, func() {
		dst, _ = ix.Search(dst[:0], q, 10, nil)
	})
	if avg != 0 {
		t.Fatalf("Search after inserts allocates %.1f per run, want 0", avg)
	}
}

// benchmarkInsert measures one Insert against an index of n entries; the
// acceptance bar is that the cost does not scale with n.
func benchmarkInsert(b *testing.B, n int) {
	entries := corpus(n, 9)
	ix, err := Build(entries, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	fresh := make([]*Entry, b.N)
	for i := range fresh {
		fresh[i] = corpusEntry(i, fmt.Sprintf("b-%d", i%6), n+i, rng)
	}
	b.ResetTimer()
	cur := ix
	for i := 0; i < b.N; i++ {
		nix, err := cur.Insert(fresh[i])
		if err != nil {
			b.Fatal(err)
		}
		cur = nix
	}
}

func BenchmarkIndexInsert1k(b *testing.B)  { benchmarkInsert(b, 1_000) }
func BenchmarkIndexInsert10k(b *testing.B) { benchmarkInsert(b, 10_000) }

// BenchmarkIndexInsertAllVideo inserts one 25-shot video per iteration into
// a 10k-entry index, the batch the library hands over per registration. The
// overlay restarts every 100 videos, which is where a 0.25 staleness budget
// would have refitted.
func BenchmarkIndexInsertAllVideo(b *testing.B) {
	ix, err := Build(corpus(10_000, 9), Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	videos := make([][]*Entry, b.N)
	for v := range videos {
		for i := 0; i < 25; i++ {
			videos[v] = append(videos[v], corpusEntry(i%4, fmt.Sprintf("bench-%d", v), i, rng))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	cur := ix
	for v, video := range videos {
		if v%100 == 0 {
			cur = ix
		}
		nix, err := cur.InsertAll(video)
		if err != nil {
			b.Fatal(err)
		}
		cur = nix
	}
}
