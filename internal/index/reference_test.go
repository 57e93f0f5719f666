package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"classminer/internal/feature"
	"classminer/internal/mat"
	"classminer/internal/vidmodel"
)

// This file holds the reference model of the leaf stage and the contract
// SearchInto is held to: a search whose refine closes on the bound answers
// exactly what FlatSearch answers over the live rows of the leaves the
// search visits — the same entries in the same order at the same Dist bits.
// The reference shares no code with the bound pass or the refine: it
// descends naively, gathers the visited leaves' live rows and scans them.

// refLeaves descends with the given beam, naively.
func refLeaves(n *node, query []float64, beam int) []*node {
	if len(n.children) == 0 {
		return []*node{n}
	}
	p := n.reducer.Project(query)
	type scored struct {
		child *node
		dist  float64
	}
	var cs []scored
	for _, name := range n.order {
		best := math.Inf(1)
		for _, c := range n.centers[name] {
			best = math.Min(best, mat.SqDist(p, c))
		}
		cs = append(cs, scored{n.children[name], best})
	}
	sort.SliceStable(cs, func(a, b int) bool { return cs[a].dist < cs[b].dist })
	var out []*node
	for i := 0; i < len(cs) && i < beam; i++ {
		out = append(out, refLeaves(cs[i].child, query, beam)...)
	}
	return out
}

// refVisited lists the live entries of the leaves a top-k search visits in
// ascending entry ID, so that FlatSearch's position order is ID order: the
// index's beam, or every leaf when k reaches the live row count.
func refVisited(ix *Index, query []float64, k int) []*Entry {
	beam := ix.opts.Beam
	if k >= ix.Size() {
		beam = math.MaxInt
	}
	var ids []int
	for _, leaf := range refLeaves(ix.root, query, beam) {
		for _, id := range append(append([]int32(nil), leaf.ids...), leaf.extraIDs...) {
			p := int(id >> maskPageShift)
			if p >= len(ix.removed) || ix.removed[p][int(id>>6)%maskPageWords]&(1<<uint(id&63)) == 0 {
				ids = append(ids, int(id))
			}
		}
	}
	sort.Ints(ids)
	out := make([]*Entry, len(ids))
	for i, id := range ids {
		out[i] = ix.all[id]
	}
	return out
}

// refSearch is the reference model of a closed Index.SearchInto.
func refSearch(ix *Index, query []float64, k int) []Result {
	if k <= 0 {
		k = 1
	}
	res, _ := FlatSearch(refVisited(ix, query, k), query, k)
	return res
}

// requireSameHits fails unless got equals want hit for hit and Dist for
// Dist — bit for bit, not within a tolerance.
func requireSameHits(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Entry != want[i].Entry || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s hit %d: %s/%d at %v, reference %s/%d at %v", what, i,
				got[i].Entry.VideoName, got[i].Entry.Shot.Index, got[i].Dist,
				want[i].Entry.VideoName, want[i].Entry.Shot.Index, want[i].Dist)
		}
	}
}

// checkSearch holds one search to the contract: a closed refine matches the
// reference exactly; one the budget cut still returns min(k, visited live
// rows) distinct hits in (Dist, ID) order at their exact distances, having
// bounded every visited live row. It reports whether the refine closed.
func checkSearch(t *testing.T, what string, ix *Index, got []Result, st Stats, q []float64, k int) bool {
	t.Helper()
	visited := refVisited(ix, q, k)
	if st.Candidates != len(visited) {
		t.Fatalf("%s: %d rows bounded, the visited leaves hold %d live rows", what, st.Candidates, len(visited))
	}
	if st.Closed == 1 {
		requireSameHits(t, what, got, refSearch(ix, q, k))
		return true
	}
	if st.Closed != 0 || st.Exact != refineBudget*k {
		t.Fatalf("%s: open refine with Closed %d after %d exact distances, budget %d",
			what, st.Closed, st.Exact, refineBudget*k)
	}
	if len(got) != min(k, len(visited)) {
		t.Fatalf("%s: %d hits, want %d", what, len(got), min(k, len(visited)))
	}
	seen := map[*Entry]bool{}
	for i, r := range got {
		if seen[r.Entry] {
			t.Fatalf("%s: hit %d repeats an entry", what, i)
		}
		seen[r.Entry] = true
		if r.Dist != math.Sqrt(ShotSqDist(r.Entry.Shot, q)) {
			t.Fatalf("%s hit %d: Dist %v is not the exact distance", what, i, r.Dist)
		}
		if i > 0 && got[i-1].Dist > r.Dist {
			t.Fatalf("%s: hits out of order at %d", what, i)
		}
	}
	return false
}

// refQueries mixes query-by-example, near-duplicates and far-off vectors.
func refQueries(entries []*Entry, rng *rand.Rand, n int) [][]float64 {
	var out [][]float64
	for i := 0; i < n; i++ {
		q := append([]float64(nil), entries[rng.Intn(len(entries))].Shot.Feature()...)
		switch i % 3 {
		case 1:
			for j := 0; j < 8; j++ {
				q[rng.Intn(len(q))] += rng.Float64() * 0.02
			}
		case 2:
			for j := range q {
				q[j] += rng.NormFloat64() * 0.5
			}
		}
		out = append(out, q)
	}
	return out
}

// TestSearchMatchesReference checks SearchInto against the reference model
// over random corpora, seeds, beams 1–3 and k — including k beyond a leaf's
// size — and again after chains of Insert and Remove; then that on the
// benchmark-shaped corpus at least 95 % of query-by-example searches close.
func TestSearchMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		var entries []*Entry
		switch seed {
		case 2:
			entries = multiLeafCorpus(seed, 40+rng.Intn(120))
		case 4:
			entries = multiLeafCorpus(seed, 7000, 30) // one large leaf
		default:
			entries = corpus(150+rng.Intn(450), seed)
		}
		ix, err := Build(entries, Options{Seed: seed, Beam: 1 + int(seed%3)})
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			var dst []Result
			var st Stats
			for qi, q := range refQueries(entries, rng, 24) {
				for _, k := range []int{1, 10, 37, 5000} {
					dst, st = ix.SearchInto(dst, q, k)
					checkSearch(t, fmt.Sprintf("seed %d %s query %d k=%d", seed, stage, qi, k), ix, dst, st, q, k)
				}
			}
		}
		check("built")
		for step := 0; step < 60; step++ {
			if step%4 == 3 {
				// Never the first video: the index stays non-empty.
				name := entries[1+rng.Intn(len(entries)-1)].VideoName
				if name != entries[0].VideoName {
					ix, _ = ix.Remove(name)
				}
				continue
			}
			src := entries[rng.Intn(len(entries))]
			f := append([]float64(nil), src.Shot.Feature()...)
			for j := range f {
				f[j] *= 1 + 0.2*rng.NormFloat64()
			}
			shot := *src.Shot
			shot.Color, shot.Texture = f[:len(src.Shot.Color)], f[len(src.Shot.Color):]
			e := &Entry{VideoName: fmt.Sprintf("inserted-%d", step/8), Shot: &shot, Path: src.Path}
			ix = mustInsert(t, ix, e)
			entries = append(entries, e)
			if step%20 == 19 {
				check(fmt.Sprintf("after %d changes", step+1))
			}
		}
	}

	entries := multiLeafCorpus(12, 800)
	ix, err := Build(entries, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 200
	closed := 0
	var dst []Result
	var st Stats
	for i := 0; i < queries; i++ {
		q := entries[(i*7919)%len(entries)].Shot.Feature()
		dst, st = ix.SearchInto(dst, q, 10)
		if checkSearch(t, fmt.Sprintf("multileaf query %d", i), ix, dst, st, q, 10) {
			closed++
		}
	}
	t.Logf("%d of %d refines closed", closed, queries)
	if closed*100 < queries*95 {
		t.Fatalf("%d of %d refines closed, want at least 95 %%", closed, queries)
	}
}

// identityLeaf builds a one-leaf index over rows whose leaf reducer is
// replaced by the identity on the first 16 coordinates, so that a row's
// bound is exactly the squared distance over those coordinates; rows holding
// dyadic values then put bounds exactly where a test wants them.
func identityLeaf(t *testing.T, rows [][]float64) *Index {
	t.Helper()
	var entries []*Entry
	for i, f := range rows {
		entries = append(entries, &Entry{
			VideoName: fmt.Sprintf("row-%d", i),
			Shot:      &vidmodel.Shot{Index: i, Color: f[:feature.ColorBins], Texture: f[feature.ColorBins:]},
			Path:      []string{"medical education", "medicine", "medicine/other"},
		})
	}
	ix, err := Build(entries, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const dim = 16
	if ix.maxDim != dim {
		t.Fatalf("widest reducer is %d wide, want %d", ix.maxDim, dim)
	}
	r := &Reducer{pca: &mat.PCA{Mean: make([]float64, dim), Components: mat.Identity(dim)}}
	r.compsT = make([]float64, dim*dim)
	r.pos = make([]int32, ix.dim)
	for j := range r.pos {
		r.pos[j] = -1
	}
	for j := 0; j < dim; j++ {
		r.selected = append(r.selected, j)
		r.pos[j] = int32(j)
		r.compsT[j*dim+j] = 1
	}
	leaf := ix.root.children["medical education"].children["medicine"].children["medicine/other"]
	leaf.reducer = r
	ix.fitLeaf(leaf)
	return ix
}

// sparseRow is a feature with the given coordinates set and every other zero.
func sparseRow(coords map[int]float64) []float64 {
	f := make([]float64, feature.ColorBins+feature.TextureDims)
	for d, v := range coords {
		f[d] = v
	}
	return f
}

// TestRefineMargins pins refineEps and refineSlack with rows built to sit
// exactly on the margin and one ulp past it. The query is the origin. At
// kth = 1 the margin is 1 + 2⁻³⁰ + 2⁻⁴⁰: a row bounded exactly there is
// refined, a row bounded at the next representable value is not. At kth = 0
// — exact duplicates of the query — the margin is 2⁻⁴⁰ alone. At kth = 1 a
// row tying the seed's distance with a smaller ID displaces it, as
// FlatSearch's (distance, position) order says.
func TestRefineMargins(t *testing.T) {
	q := sparseRow(nil)
	for _, c := range []struct {
		name        string
		kth, margin float64
		rows        [][]float64
		want        int // the row ranked first
		exact       int // exact distances the search spends
	}{
		{"kth=1", 1, 1 + 0x1p-30 + 0x1p-40, [][]float64{
			sparseRow(map[int]float64{0: 1}),                                     // bound 1 = its distance, ties the seed with a smaller ID
			sparseRow(map[int]float64{20: 1}),                                    // bound 0, distance 1: the seed
			sparseRow(map[int]float64{0: 1, 1: 0x1p-15, 2: 0x1p-20}),             // bound on the margin
			sparseRow(map[int]float64{0: 1, 1: 0x1p-15, 2: 0x1p-20, 3: 0x1p-26}), // one ulp past it
			sparseRow(map[int]float64{5: 8}), sparseRow(map[int]float64{6: 9}), sparseRow(map[int]float64{7: 10}),
		}, 0, 3},
		{"kth=0", 0, 0x1p-40, [][]float64{
			sparseRow(nil),                         // a duplicate of the query: the seed
			sparseRow(nil),                         // another, with a larger ID
			sparseRow(map[int]float64{0: 0x1p-20}), // bound 2⁻⁴⁰, on the margin
			sparseRow(map[int]float64{0: 0x1p-20, 1: 0x1p-46}), // one ulp past it
			sparseRow(map[int]float64{5: 8}), sparseRow(map[int]float64{6: 9}), sparseRow(map[int]float64{7: 10}),
		}, 0, 3},
	} {
		ix := identityLeaf(t, c.rows)
		if m := margin(c.kth); m != c.margin {
			t.Fatalf("%s: margin %v, the rows were built around %v", c.name, m, c.margin)
		}
		got, st := ix.Search(q, 1)
		if st.Closed != 1 || st.Exact != c.exact {
			t.Fatalf("%s: Closed %d after %d exact distances, want 1 after %d", c.name, st.Closed, st.Exact, c.exact)
		}
		requireSameHits(t, c.name, got, refSearch(ix, q, 1))
		if got[0].Entry != ix.all[c.want] {
			t.Fatalf("%s: row %d ranks first, want row %d", c.name, got[0].Entry.Shot.Index, c.want)
		}
	}
}

// fuzzBytes reads a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzSearchMatchesVisitedFlat builds a small index from the fuzz input —
// rows over the six paths of corpus, their few non-zero coordinates
// multiples of ¼ so that distances tie and rows repeat — inserts and
// removes rows, and holds searches at beams 1–3 to the contract
// checkSearch states: a closed refine answers what FlatSearch answers over
// the visited leaves' live rows, (distance, ID) tie order included.
func FuzzSearchMatchesVisitedFlat(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x28\x01\x09\x11\x03\x20\x05\x40\x06\x07\x08\x09\x0a\x00\x01\x02\x03"))
	f.Add([]byte("\xff\x02\x0b\x80\x81\x82\x83\x84\x85\x86\x87\x01\x02\x03\x00\x04\x05"))
	paths := [][]string{
		{"medical education", "medicine", "medicine/presentation"},
		{"medical education", "medicine", "medicine/dialog"},
		{"medical education", "medicine", "medicine/clinical operation"},
		{"medical education", "nursing", "nursing/dialog"},
		{"health care", "health care/general"},
		{"medical report", "medical report/general"},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		shot := func(i int) *vidmodel.Shot {
			f := make([]float64, feature.ColorBins+feature.TextureDims)
			for j := 1 + in.next()%6; j > 0; j-- {
				f[in.next()*11%len(f)] = float64(in.next()%8) / 4
			}
			return &vidmodel.Shot{Index: i, Color: f[:feature.ColorBins], Texture: f[feature.ColorBins:]}
		}
		entry := func(i, path int) *Entry {
			return &Entry{VideoName: fmt.Sprintf("v%d", i), Shot: shot(i), Path: paths[path]}
		}
		n := len(paths) + in.next()%40
		beam := 1 + in.next()%3
		var entries []*Entry
		for i := 0; i < n; i++ {
			path := i
			if i >= len(paths) {
				path = in.next() % len(paths)
			}
			entries = append(entries, entry(i, path))
		}
		ix, err := Build(entries, Options{Seed: 1, Beam: beam})
		if err != nil {
			t.Skip(err)
		}
		for op := in.next() % 12; op > 0; op-- {
			if in.next()%3 == 0 {
				ix, _ = ix.RemoveIDs([]int32{int32(in.next() % len(ix.all))})
				continue
			}
			e := entry(len(ix.all), in.next()%len(paths))
			if ix, err = ix.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		var dst []Result
		var st Stats
		for qi := 0; qi < 4; qi++ {
			q := shot(-1).Feature()
			if in.next()%2 == 0 {
				q = ix.all[in.next()%len(ix.all)].Shot.Feature() // a row's duplicate: kth may be 0
			}
			k := 1 + in.next()%12
			dst, st = ix.SearchInto(dst, q, k)
			checkSearch(t, fmt.Sprintf("beam %d query %d k=%d", beam, qi, k), ix, dst, st, q, k)
		}
	})
}
