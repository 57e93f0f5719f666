package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"classminer/internal/feature"
	"classminer/internal/mat"
	"classminer/internal/vidmodel"
)

// This file holds the reference model of a search and the contract Search
// is held to: it answers exactly what FlatSearch answers over every live
// row — the same entries in the same order at the same Dist bits. The
// reference shares no code with the boxes, the bounds or the walk: it
// gathers the index's live rows and scans them.

// refLive lists the index's live entries in ascending entry ID, so that
// FlatSearch's position order is ID order.
func refLive(ix *Index) []*Entry {
	var out []*Entry
	for id, e := range ix.all {
		p := id >> maskPageShift
		if p >= len(ix.removed) || ix.removed[p][id>>6%maskPageWords]&(1<<uint(id&63)) == 0 {
			out = append(out, e)
		}
	}
	return out
}

// refSearch is the reference model of Index.Search.
func refSearch(ix *Index, query []float64, k int) []Result {
	if k <= 0 {
		k = 1
	}
	res, _ := FlatSearch(refLive(ix), query, k)
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

// checkSearch holds one search to the contract: the reference's hits, bit
// for bit, having bounded no more than the live rows and spent no more
// full-space distances than it bounded rows.
func checkSearch(t *testing.T, what string, ix *Index, got []Result, st Stats, q []float64, k int) {
	t.Helper()
	requireSameHits(t, what, got, refSearch(ix, q, k))
	if st.Candidates > ix.Size() || st.Exact > st.Candidates {
		t.Fatalf("%s: %d rows bounded and %d exact distances over %d live rows", what, st.Candidates, st.Exact, ix.Size())
	}
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

// TestSearchMatchesReference checks Search against the reference model — a
// flat scan of every live row — over random corpora, seeds and k, including
// k beyond a leaf's size and beyond the live row count, and again after
// chains of Insert and Remove.
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
		ix, err := Build(entries, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			var dst []Result
			var st Stats
			for qi, q := range refQueries(entries, rng, 24) {
				for _, k := range []int{1, 10, 37, 5000} {
					dst, st = ix.Search(dst, q, k, nil)
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
}

// identityLeaf builds a one-leaf index over rows whose leaf reducer is
// replaced by the identity on the first 16 coordinates, so that a row's
// bound is exactly the squared distance over those coordinates plus its
// dropped norm's deflated gap, the norm of the rest; rows holding dyadic
// values on the first 16 then put bounds exactly where a test wants them.
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
	ix, err := Build(entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const dim = 16
	if ix.maxDim != dim+1 {
		t.Fatalf("widest reducer is %d wide, want %d", ix.maxDim, dim+1)
	}
	r := &Reducer{pca: &mat.PCA{Mean: make([]float64, dim), Components: mat.NewMatrix(dim, dim)}}
	r.compsT = make([]float64, dim*dim)
	r.pos = make([]int32, ix.dim)
	for j := range r.pos {
		r.pos[j] = -1
	}
	for j := 0; j < dim; j++ {
		r.selected = append(r.selected, j)
		r.pos[j] = int32(j)
		r.pca.Components[j][j] = 1
		r.compsT[j*dim+j] = 1
	}
	leaf := ix.root.children["medical education"].children["medicine"].children["medicine/other"]
	leaf.reducer = r
	ix.layoutLeaf(leaf)
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
// row tying the first exact distance with a smaller ID displaces it, as
// FlatSearch's (distance, position) order says. The rows share one k-d leaf
// (there are fewer than subLeafRows), so the refine meets them in bound
// order.
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
			sparseRow(map[int]float64{0: 1}),                                     // bound 1 = its distance, ties the first with a smaller ID
			sparseRow(map[int]float64{20: 1}),                                    // bound (1−tol)², distance 1: the first exact
			sparseRow(map[int]float64{0: 1, 1: 0x1p-15, 2: 0x1p-20}),             // bound on the margin
			sparseRow(map[int]float64{0: 1, 1: 0x1p-15, 2: 0x1p-20, 3: 0x1p-26}), // one ulp past it
			sparseRow(map[int]float64{5: 8}), sparseRow(map[int]float64{6: 9}), sparseRow(map[int]float64{7: 10}),
		}, 0, 3},
		{"kth=0", 0, 0x1p-40, [][]float64{
			sparseRow(nil),                         // a duplicate of the query: the first exact
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
		got, st := ix.Search(nil, q, 1, nil)
		if st.Exact != c.exact {
			t.Fatalf("%s: %d exact distances, want %d", c.name, st.Exact, c.exact)
		}
		requireSameHits(t, c.name, got, refSearch(ix, q, 1))
		if got[0].Entry != ix.all[c.want] {
			t.Fatalf("%s: row %d ranks first, want row %d", c.name, got[0].Entry.Shot.Index, c.want)
		}
	}
}

// TestDroppedNormBound holds the dropped-norm term to its two promises:
// it bounds a row's distance from below however close the row is to the
// query and however large the norms, and an unprojected leaf's bound
// covers the rows its overlay holds.
//
// Near-duplicates: under identityLeaf coordinates 16 and 17 are dropped.
// The query q holds 1e150 on 16 and b on 17; x is q with b one ulp larger,
// so q and x are that ulp apart, but their dropped norms, computed, can
// differ by an ulp of the norm, four times more. The case is kept only
// when they do (at least eight cases are required). y is q with δ, half
// the computed norm gap, on coordinate 0. The top two for q are q and x;
// an undeflated gap would bound x past y's exact distance and rank y
// second. The case runs with x fitted and with x inserted into the overlay.
//
// Overlay: a shot of one leaf, nudged, is inserted into another leaf, and
// queried with k = 1. Its dropped norm in the second leaf's space lies
// outside that leaf's root box, further from it than the shot's own leaf
// puts the k-th distance, so the second leaf is opened only because its
// bound takes the overlay box's gap.
func TestDroppedNormBound(t *testing.T) {
	norm := func(xs ...float64) float64 {
		var acc normAcc
		for _, x := range xs {
			acc.add(x)
		}
		return acc.norm()
	}
	const a = 1e150
	cases := 0
	for i := 0; cases < 8 && i < 4000; i++ {
		b := a * (0.25 + float64(i)/40000)
		b1 := math.Nextafter(b, math.Inf(1))
		gap := math.Abs(norm(a, b) - norm(a, b1))
		if gap < 4*(b1-b) {
			continue
		}
		cases++
		q := sparseRow(map[int]float64{16: a, 17: b})
		x := sparseRow(map[int]float64{16: a, 17: b1})
		y := sparseRow(map[int]float64{0: gap / 2, 16: a, 17: b})
		for _, insert := range []bool{false, true} {
			what := fmt.Sprintf("b = %v, x inserted %v", b, insert)
			rows := [][]float64{q, y, x}
			if insert {
				rows = rows[:2]
			}
			ix := identityLeaf(t, rows)
			if insert {
				ix = mustInsert(t, ix, &Entry{
					VideoName: "row-2",
					Shot:      &vidmodel.Shot{Index: 2, Color: x[:feature.ColorBins], Texture: x[feature.ColorBins:]},
					Path:      ix.all[0].Path,
				})
			}
			got, st := ix.Search(nil, q, 2, nil)
			checkSearch(t, what, ix, got, st, q, 2)
			if got[1].Entry != ix.all[2] {
				t.Fatalf("%s: row %d ranks second, want x", what, got[1].Entry.Shot.Index)
			}
		}
	}
	if cases < 8 {
		t.Fatalf("%d near-duplicate pairs whose computed norms are further apart than they are, want 8", cases)
	}

	entries := corpus(600, 4)
	ix, err := Build(entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := entries[1] // medicine/dialog
	f := append([]float64(nil), src.Shot.Feature()...)
	f[0] += 0x1p-20
	ix = mustInsert(t, ix, &Entry{
		VideoName: "moved",
		Shot:      &vidmodel.Shot{Index: 0, Color: f[:feature.ColorBins], Texture: f[feature.ColorBins:]},
		Path:      entries[0].Path, // medicine/presentation
	})
	got, st := ix.Search(nil, f, 1, nil)
	checkSearch(t, "overlay", ix, got, st, f, 1)
	leaf := ix.leaves[0]
	dim := leaf.reducer.Dim()
	e := leaf.reducer.ProjectInto(make([]float64, dim), f)[dim-1]
	rootGap, extraGap := boxNormGap(e, leaf.box(0, dim), ix.tol), boxNormGap(e, leaf.extraBox, ix.tol)
	kth := 0x1p-20 * 0x1p-20 // the squared distance to the shot's own row
	if extraGap != 0 || rootGap*rootGap <= margin(kth) {
		t.Fatalf("overlay: the query's dropped norm is %v from the overlay box and %v from the root box: the case does not need the overlay's gap", extraGap, rootGap)
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

// FuzzSearchMatchesFlat builds an index from the fuzz input, changes it by
// a run of Insert, InsertAll and RemoveIDs calls, and holds searches to the
// contract checkSearch states: FlatSearch's answer over the live rows,
// (distance, ID) tie order included. Rows put values in multiples of ¼ on
// a few of a small set of coordinates, so distances tie, rows repeat, and
// many rows share the extreme values that make a box's faces; one leaf gets
// most of the rows, so it splits into k-d nodes. A query is drawn like a
// row, or duplicates a row — a live one puts kth at 0, and its projection on
// the faces of the boxes that hold the row.
//
// The input's fourth byte widens the draw for the dropped-norm term: rows
// that set more coordinates than a reducer keeps, so that the norm is
// rarely 0; values scaled by one power of two per input, from subnormals
// to about 1e150; and near-duplicates. A near-duplicate is drawn in its
// source row's leaf: before the fit an exact copy, after it — an inserted
// row or a query — a copy moved a few ulps in one non-zero coordinate the
// leaf's reducer drops, when there is one. (A bound is exact only up to
// rounding in the coordinates a reducer keeps, relative to their size —
// see margin — so the draw moves no kept coordinate by an ulp and mixes no
// magnitudes in one input.)
func FuzzSearchMatchesFlat(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x28\x01\x09\x11\x03\x20\x05\x40\x06\x07\x08\x09\x0a\x00\x01\x02\x03"))
	f.Add([]byte("\xff\x02\x0b\x80\x81\x82\x83\x84\x85\x86\x87\x01\x02\x03\x00\x04\x05"))
	f.Add([]byte("\x07\xc0\x03\x11\x0b\x01\x02\x01\x02\x00\x05\x00\x01\x03\x04\x00\x09\x00\x02"))
	f.Add([]byte("\x11\x05\x1d\x05\x07\x60\x30\x0b\x02\x05\x01\x07\x00\x01\x03\x02\x00\x01\x00\x05"))
	f.Add([]byte("\x2a\x09\x00\x07\x08\x3f\x10\x28\x07\x02\x09\x02\x0a\x00\x00\x04\x00\x01\x00\x07"))
	f.Add([]byte("\x03\x44\x1c\x04\x06\x00\x40\x28\x05\x00\x03\x01\x03\x02\x06\x00\x01\x00\x02\x00\x08"))
	paths := [][]string{
		{"medical education", "medicine", "medicine/presentation"},
		{"medical education", "medicine", "medicine/dialog"},
		{"medical education", "medicine", "medicine/clinical operation"},
		{"medical education", "nursing", "nursing/dialog"},
		{"health care", "health care/general"},
		{"medical report", "medical report/general"},
	}
	const width = feature.ColorBins + feature.TextureDims
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		rng := rand.New(rand.NewSource(int64(in.next()<<8 | in.next())))
		coords := 2 + in.next()%30 // the coordinates rows may set
		nonZeros := 1 + in.next()%6
		mode := in.next()
		if mode&1 != 0 { // wide rows: more coordinates than a reducer keeps
			coords, nonZeros = 64+rng.Intn(width-63), 48+rng.Intn(64)
		}
		scale := 0
		if mode&2 != 0 {
			scale = []int{-1073, -1040, -600, -30, 30, 400, 496}[in.next()%7]
		}
		var ix *Index
		// dropped is the position table of the reducer of the leaf path
		// names, nil before the fit.
		dropped := func(path []string) []int32 {
			if ix == nil {
				return nil
			}
			n := ix.root
			for _, name := range path {
				n = n.children[name]
			}
			return n.reducer.pos
		}
		// nearDup is a copy of src, a row of the leaf path names, moved a
		// few ulps in one non-zero coordinate the leaf drops.
		nearDup := func(src []float64, path []string) []float64 {
			f := append([]float64(nil), src...)
			pos := dropped(path)
			var free []int
			for j, v := range f {
				if v != 0 && pos != nil && pos[j] < 0 {
					free = append(free, j)
				}
			}
			if len(free) > 0 {
				j := free[rng.Intn(len(free))]
				for n := 1 + rng.Intn(3); n > 0; n-- {
					f[j] = math.Nextafter(f[j], math.Inf(2*rng.Intn(2)-1))
				}
			}
			return f
		}
		draw := func() []float64 {
			f := make([]float64, width)
			for j := 1 + rng.Intn(nonZeros); j > 0; j-- {
				f[rng.Intn(coords)*37%width] = math.Ldexp(float64(rng.Intn(8))/4, scale)
			}
			return f
		}
		var made []*Entry
		entry := func(i int) *Entry {
			var f []float64
			path := paths[0] // most rows share one leaf, which splits
			// The first rows, one for each path, are drawn afresh.
			if mode&4 != 0 && len(made) >= len(paths) && rng.Intn(3) == 0 {
				src := made[rng.Intn(len(made))]
				f, path = nearDup(src.Shot.Feature(), src.Path), src.Path
			} else {
				if rng.Intn(3) == 0 {
					path = paths[rng.Intn(len(paths))]
				}
				f = draw()
			}
			e := &Entry{VideoName: fmt.Sprintf("v%d", i), Path: path,
				Shot: &vidmodel.Shot{Index: i, Color: f[:feature.ColorBins], Texture: f[feature.ColorBins:]}}
			made = append(made, e)
			return e
		}
		n := len(paths) + 2*in.next()
		var entries []*Entry
		for i := 0; i < n; i++ {
			e := entry(i)
			if i < len(paths) {
				e.Path = paths[i]
			}
			entries = append(entries, e)
		}
		var err error
		ix, err = Build(entries, Options{})
		if err != nil {
			t.Skip(err)
		}
		for op := in.next() % 12; op > 0; op-- {
			switch in.next() % 3 {
			case 0:
				ids := make([]int32, 1+in.next()%8)
				for i := range ids {
					ids[i] = int32(rng.Intn(len(ix.all)))
				}
				ix, _ = ix.RemoveIDs(ids)
			case 1:
				if ix, err = ix.Insert(entry(len(ix.all))); err != nil {
					t.Fatal(err)
				}
			default:
				batch := make([]*Entry, 1+in.next()%16)
				for i := range batch {
					batch[i] = entry(len(ix.all) + i)
				}
				if ix, err = ix.InsertAll(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		var dst []Result
		var st Stats
		for qi := 0; qi < 4; qi++ {
			var q []float64
			switch in.next() % 3 {
			case 0:
				q = ix.all[rng.Intn(len(ix.all))].Shot.Feature()
			case 1:
				q = draw()
			default:
				e := ix.all[rng.Intn(len(ix.all))]
				q = nearDup(e.Shot.Feature(), e.Path)
			}
			k := 1 + in.next()%12
			if qi == 3 {
				k = ix.Size() + 1 + in.next()%4
			}
			dst, st = ix.Search(dst, q, k, nil)
			checkSearch(t, fmt.Sprintf("query %d k=%d", qi, k), ix, dst, st, q, k)
		}
	})
}
