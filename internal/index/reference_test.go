package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"classminer/internal/mat"
)

// This file holds the reference model of the leaf stage: a naive search that
// shares no code with leafCandidates, the cell table or rank. It hashes each
// visited leaf into a Go map and gathers cells the way the index did before
// the table existed, keeps every candidate in a set, sorts instead of
// heaping, and re-ranks with ShotSqDist. SearchInto must equal it exactly.

// refHash is the pre-table leaf hash: cell key -> leaf rows, built on demand.
func refHash(n *node) map[cellKey][]int32 {
	hash := map[cellKey][]int32{}
	for r := 0; r < n.proj.R; r++ {
		key := n.hashKey(n.proj.Row(r))
		hash[key] = append(hash[key], int32(r))
	}
	return hash
}

// refChebyshev is the L∞ distance between a cell and the base cell.
func refChebyshev(key cellKey, base []int) int {
	r := 0
	for d, b := range base {
		dv := int(key[d]) - b
		if dv < 0 {
			dv = -dv
		}
		if dv > r {
			r = dv
		}
	}
	return r
}

// refShellWalk returns the rows of the cells at exactly radius r of base by
// walking every occupied cell of the map.
func refShellWalk(hash map[cellKey][]int32, base []int, r int) map[int32]bool {
	rows := map[int32]bool{}
	for key, rs := range hash {
		if refChebyshev(key, base) == r {
			for _, row := range rs {
				rows[row] = true
			}
		}
	}
	return rows
}

// refShellProbe returns the same rows by enumerating the (2r+1)^h cube
// around base and probing the map with every cell on its surface.
func refShellProbe(hash map[cellKey][]int32, base []int, r int) map[int32]bool {
	rows := map[int32]bool{}
	h := len(base)
	offs := make([]int, h)
	var walk func(d int)
	walk = func(d int) {
		if d == h {
			shell := r == 0
			var key cellKey
			for i, o := range offs {
				key[i] = int32(base[i] + o)
				if o == -r || o == r {
					shell = true
				}
			}
			if shell {
				for _, row := range hash[key] {
					rows[row] = true
				}
			}
			return
		}
		for o := -r; o <= r; o++ {
			offs[d] = o
			walk(d + 1)
		}
	}
	if h > 0 {
		walk(0)
	}
	return rows
}

// refLeaves descends with the index's beam, naively.
func refLeaves(ix *Index, n *node, query []float64) []*node {
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
	for i := 0; i < len(cs) && i < ix.opts.Beam; i++ {
		out = append(out, refLeaves(ix, cs[i].child, query)...)
	}
	return out
}

// refSearch is the reference model of Index.SearchInto.
func refSearch(ix *Index, query []float64, k int) []Result {
	if k <= 0 {
		k = 1
	}
	live := func(id int32) bool {
		p := int(id >> maskPageShift)
		if p >= len(ix.removed) {
			return true
		}
		return ix.removed[p][int(id>>6)%maskPageWords]&(1<<uint(id&63)) == 0
	}
	byRank := func(items []heapItem) {
		sort.Slice(items, func(a, b int) bool {
			if items[a].sq != items[b].sq {
				return items[a].sq < items[b].sq
			}
			return items[a].id < items[b].id
		})
	}
	var short []heapItem
	for _, leaf := range refLeaves(ix, ix.root, query) {
		p := leaf.reducer.Project(query)
		base := make([]int, len(leaf.cell))
		for d := range base {
			base[d] = int(math.Floor(p[d] / leaf.cell[d]))
		}
		hash := refHash(leaf)
		hashed := map[int32]bool{} // live rows the cells yielded
		for r := 0; r <= 2 && len(hashed) < k; r++ {
			for row := range refShellWalk(hash, base, r) {
				if live(leaf.ids[row]) {
					hashed[row] = true
				}
			}
		}
		if len(hashed) < k { // cells exhausted: the whole leaf
			for row, id := range leaf.ids {
				if live(id) {
					hashed[int32(row)] = true
				}
			}
		}
		for i, id := range leaf.extraIDs { // extras, unconditionally
			if live(id) {
				hashed[int32(len(leaf.ids)+i)] = true
			}
		}
		var best []heapItem
		for row := range hashed {
			sq := mat.SqDistBounded(p, leaf.projRow(row, len(p)), math.Inf(1))
			best = append(best, heapItem{sq: sq, id: leaf.idAt(row)})
		}
		byRank(best)
		if len(best) > k {
			best = best[:k]
		}
		short = append(short, best...)
	}
	for i := range short {
		short[i].sq = ShotSqDist(ix.all[short[i].id].Shot, query)
	}
	byRank(short)
	if len(short) > k {
		short = short[:k]
	}
	var out []Result
	for _, it := range short {
		out = append(out, Result{Entry: ix.all[it.id], Dist: math.Sqrt(it.sq)})
	}
	return out
}

// requireSameHits fails unless got equals want hit for hit and Dist for
// Dist — exactly, not within a tolerance.
func requireSameHits(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Entry != want[i].Entry || got[i].Dist != want[i].Dist {
			t.Fatalf("%s hit %d: %s/%d at %v, reference %s/%d at %v", what, i,
				got[i].Entry.VideoName, got[i].Entry.Shot.Index, got[i].Dist,
				want[i].Entry.VideoName, want[i].Entry.Shot.Index, want[i].Dist)
		}
	}
}

// refQueries mixes query-by-example, near-duplicates and far-off vectors
// (which exhaust the cells and force the whole-leaf fallback).
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
// over random corpora, seeds, beams and k — including k beyond a leaf's
// size — and again after chains of Insert and Remove.
func TestSearchMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		var entries []*Entry
		switch seed {
		case 2:
			entries = multiLeafCorpus(seed, 40+rng.Intn(120))
		case 4:
			// One leaf large enough that its cells are probed, not scanned.
			entries = multiLeafCorpus(seed, 7000, 30)
		default:
			entries = corpus(150+rng.Intn(450), seed)
		}
		opts := Options{Seed: seed, Beam: 1 + int(seed%3)}
		if seed == 4 {
			opts.HashDims = 3 // 125 probes: fewer cells tip a leaf into probing
		}
		ix, err := Build(entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 4 {
			large := ix.root.children["medical education"].children["medicine"].children["medicine/presentation"]
			if len(large.cellKeys) < scanCellsPerProbe*pow5[opts.HashDims] {
				t.Fatalf("the large leaf occupies %d cells: too few to take the probe path", len(large.cellKeys))
			}
		}
		check := func(stage string) {
			t.Helper()
			var dst []Result
			for qi, q := range refQueries(entries, rng, 24) {
				for _, k := range []int{1, 10, 37, 5000} {
					dst, _ = ix.SearchInto(dst, q, k)
					requireSameHits(t, fmt.Sprintf("seed %d %s query %d k=%d", seed, stage, qi, k), dst, refSearch(ix, q, k))
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

// TestCellTableMatchesMap checks the cell table against the map it
// replaced: for every radius, both ways of reading the table — scanCells'
// pass and probeShell's probes — yield exactly the rows the map yields, on
// random leaves of every hash width down to a single occupied cell.
func TestCellTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		h := 1 + trial%maxHashDims
		rows := 1 + rng.Intn(400)
		spread := []float64{0, 0.3, 2, 6}[rng.Intn(4)] // 0: every row in one cell
		n := &node{proj: mat.NewDense(rows, h+rng.Intn(3)), cell: make([]float64, h)}
		for i := range n.proj.Data {
			n.proj.Data[i] = rng.NormFloat64() * spread
		}
		for d := range n.cell {
			n.cell[d] = 0.5 + rng.Float64()
		}
		n.buildCells()
		hash := refHash(n)
		if len(n.cellKeys) != len(hash) || int(n.cellStart[len(n.cellKeys)]) != rows {
			t.Fatalf("trial %d: table has %d cells over %d rows, map %d over %d",
				trial, len(n.cellKeys), n.cellStart[len(n.cellKeys)], len(hash), rows)
		}
		for q := 0; q < 20; q++ {
			base := make([]int, h)
			for d := range base {
				base[d] = int(math.Floor(rng.NormFloat64() * spread / n.cell[d]))
			}
			var ring [3][]int32
			n.scanCells(base, &ring)
			for r := 0; r <= 2; r++ {
				want := refShellWalk(hash, base, r)
				byProbe := refShellProbe(hash, base, r)
				for name, cells := range map[string][]int32{"scanCells": ring[r], "probeShell": n.probeShell(nil, base, r)} {
					got := map[int32]bool{}
					for i, ci := range cells {
						if i > 0 && cells[i-1] >= ci {
							t.Fatalf("trial %d h=%d radius %d: %s cells out of table order: %v", trial, h, r, name, cells)
						}
						for _, row := range n.cellRows[n.cellStart[ci]:n.cellStart[ci+1]] {
							got[row] = true
						}
					}
					if !sameRows(got, want) || !sameRows(got, byProbe) {
						t.Fatalf("trial %d h=%d radius %d: %s gives rows %v, map walk %v, map probes %v",
							trial, h, r, name, got, want, byProbe)
					}
				}
			}
		}
	}
}

// TestShellsPartitionBall pins the probe count leafCandidates budgets for:
// on a leaf occupying every cell around the query, probeShell's shells hold
// 1, 3^h-1 and 5^h-3^h cells — 5^h probes in all, not 1 + 3^h + 5^h.
func TestShellsPartitionBall(t *testing.T) {
	for h := 1; h <= maxHashDims; h++ {
		side := 7 // cells -3..3 per dim: the radius-2 ball and a rim beyond it
		rows := 1
		for d := 0; d < h; d++ {
			rows *= side
		}
		n := &node{proj: mat.NewDense(rows, h), cell: make([]float64, h)}
		for d := range n.cell {
			n.cell[d] = 1
		}
		for r := 0; r < rows; r++ {
			for d, v := 0, r; d < h; d, v = d+1, v/side {
				n.proj.Data[r*h+d] = float64(v%side-3) + 0.5
			}
		}
		n.buildCells()
		base := make([]int, h)
		total, inner := 0, 0
		for r := 0; r <= 2; r++ {
			ball := 1
			for d := 0; d < h; d++ {
				ball *= 2*r + 1
			}
			if got := len(n.probeShell(nil, base, r)); got != ball-inner {
				t.Fatalf("h=%d radius %d: shell of %d cells, want %d", h, r, got, ball-inner)
			}
			total, inner = ball, ball
		}
		if total != pow5[h] {
			t.Fatalf("h=%d: shells cover %d cells, pow5 says %d", h, total, pow5[h])
		}
	}
}

func sameRows(a, b map[int32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if !b[r] {
			return false
		}
	}
	return true
}
