// Package index implements the cluster-based hierarchical database index of
// §2 and §6.2: a tree derived from the concept hierarchy, whose leaves each
// keep their shots in a reduced feature subspace of their own, so that
// distances are computed in a subspace rather than in all 266 dimensions.
//
// Search is exact: it returns what FlatSearch returns over every live row —
// the same hits, in the same order, at the same Dist bits. A leaf's reduced
// space has one coordinate past its principal components: the dropped norm
// e(x), the Euclidean norm of the coordinates its reducer does not select.
// Within that space the rows are split into a k-d tree of boxes (the min
// and max of every reduced coordinate over the rows under a node). A box's
// distance to the query's projection bounds every row under it from below,
// and a row's reduced distance bounds its full-space distance from below:
// the selected and the dropped coordinates are orthogonal, a reducer
// applies an orthonormal projection to the selected ones, which does not
// lengthen a vector, and the dropped ones are at least |e(q) − e(x)| apart
// (GEMINI's lower-bounding lemma with one more term). The norm term is
// deflated by a bound on its rounding (see margin), so it stays a lower
// bound however close two rows are and however large their values.
//
// A search first computes only the query's dropped norm in every leaf's
// space, in one pass over the query's non-zero coordinates, and bounds each
// leaf by that norm's gap to the e range of the leaf's root box and overlay
// box. It projects the query into a leaf in full only when that bound comes
// first. It then pops boxes and rows best-first by bound and spends
// full-space distances only on the rows no bound excludes, stopping once
// the next bound passes the k-th exact distance: the Tc ≪ Te total-cost
// comparison of Eqs. (24)–(25) with the answer of a full scan. The paper
// routes a query down the tree by multi-centre summaries of the non-leaf
// nodes, and may miss; this index bounds instead, and never does.
//
// Storage is flat: entries are numbered at Build, the full feature of entry
// i is read through rows[i] — the zero-suppressed row its shot already
// holds (Shot.Row), never a copy; an unregistered shot's dense feature is
// packed once — and every leaf precomputes one projection matrix over its
// rows, ordered so that each k-d leaf is a contiguous run. The fit's
// statistics and the projections walk the packed rows' non-zero elements,
// and the exact distance reads the rows as they are. The search hot path
// runs on pooled per-call scratch (query projections, the bound heap, the
// bounded top-k max-heap), so a steady-state Search performs zero heap
// allocations.
//
// The fit is a pure function of its rows, bit for bit: it draws no random
// numbers, and each leaf's reducer, projection and k-d split depend only on
// the leaf's rows. The leaves are fit on up to GOMAXPROCS goroutines that
// the build starts and waits for, so the index Build or BuildMatrix returns
// is the same at any GOMAXPROCS.
package index

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"classminer/internal/featrow"
	"classminer/internal/mat"
	"classminer/internal/trace"
	"classminer/internal/vidmodel"
)

// Entry is one indexed shot.
type Entry struct {
	VideoName string
	Shot      *vidmodel.Shot
	// Path locates the entry in the concept hierarchy, e.g.
	// ["medical education", "medicine", "medicine/dialog"].
	Path []string
}

// Options tunes index construction. Zero values become defaults.
type Options struct {
	SelectDims int // variance-selected coordinates (default 48)
	PCADims    int // principal components per leaf (default 16)
}

func (o Options) withDefaults() Options {
	if o.SelectDims <= 0 {
		o.SelectDims = 48
	}
	if o.PCADims <= 0 {
		o.PCADims = 16
	}
	return o
}

// Stats counts the work a search performed, the quantities of Eqs. (24)
// and (25): distance computations, the float dimensions they touched, and
// the size of the candidate set. Projection is not counted: neither the
// query's dropped norms and the leaf bounds drawn from them, nor the full
// projection into each leaf the search opens.
type Stats struct {
	DistanceOps int // total distance computations: box bounds, row bounds and full-space distances
	FloatOps    int // Σ dims actually touched over all distance computations
	Candidates  int // live rows bounded, each once
	Exact       int // full-space distances computed
}

// Result is one ranked search hit.
type Result struct {
	Entry *Entry
	Dist  float64
}

// Index is the built hierarchical index. A built Index is immutable with
// respect to searches; Insert and Remove extend it copy-on-write (see
// incremental.go), returning a new Index that shares all unchanged
// structure with its predecessor.
type Index struct {
	opts Options
	root *node
	// leaves are root's leaves in the tree's order, the leaves a search
	// bounds; Insert and InsertAll replace the one they clone in a copy.
	leaves []*node
	all    []*Entry
	// rows[i] is the full feature of entry i, dim wide, packed: its shot's
	// Row, or the index's own packing of a shot that has none (or of the
	// matrix BuildMatrix was handed). Inserted entries append to it like all.
	rows []featrow.Row
	dim  int

	// Incremental overlay state. baseRows is the entry count at the last
	// full fit; entries inserted since then are counted by inserted. removed
	// is a paged bitset over global entry IDs masking deleted entries (nil
	// when none; see maskPage); removedCount tallies its set bits. The
	// overlay is bounded in practice by the caller's staleness budget — once
	// (inserted+removed)/baseRows exceeds it, a full refit is warranted.
	baseRows     int
	inserted     int
	removed      []*maskPage
	removedCount int

	maxDim int     // widest reducer output across leaves (scratch sizing)
	tol    float64 // the dropped-norm gap's rounding allowance, normTol(dim)
	// scratch is shared by every index in a copy-on-write chain (clones
	// copy the pointer), so pooled buffers survive Insert/Remove and
	// steady-state searches stay allocation-free.
	scratch *sync.Pool
}

// node is one concept of the tree. Only leaves hold rows and a reducer; a
// non-leaf node is a name and its children, which a path is resolved by.
type node struct {
	name     string
	children map[string]*node
	order    []string // deterministic child order
	// Leaf state, flat storage: proj row r is the reduced feature of entry
	// ids[r], and the rows are in k-d order — kd[i]'s rows are [lo, hi).
	reducer *Reducer
	ids     []int32
	proj    *mat.Dense
	// lead holds proj's leading leadDims(dim) columns contiguously: the
	// part of every row the partial bound reads, a quarter of the cache
	// lines proj spreads it over.
	lead []float64
	// kd is the leaf's k-d tree in pre-order (kd[0] the root; a node's left
	// child follows it), and boxes[i*2*dim:] holds kd[i]'s box: dim minima,
	// then dim maxima of the reduced coordinates over its rows.
	kd    []kdNode
	boxes []float64
	// Incremental overlay: entries inserted after the fit. extraIDs extends
	// ids (leaf row len(ids)+i refers to extraIDs[i]), extraProj holds
	// their reduced features (reducer.Dim() wide rows), and extraBox is
	// their box, laid out as one of boxes; a search bounds them as one more
	// k-d leaf.
	extraIDs  []int32
	extraProj []float64
	extraBox  []float64
}

// kdNode is one box of a leaf's k-d tree over leaf rows [lo, hi). right is
// the index of its right child, or -1 at a k-d leaf; the left child is the
// next node.
type kdNode struct {
	lo, hi, right int32
}

// subLeafRows is the most rows a k-d leaf holds. The split halves a node
// until its rows fit, so k-d leaves hold 33–64 rows of a larger leaf.
const subLeafRows = 64

// projRow returns the reduced feature of leaf row row: a base row, or an
// overlay row past them.
func (n *node) projRow(row int32, dim int) []float64 {
	if int(row) < len(n.ids) {
		return n.proj.Row(int(row))
	}
	r := int(row) - len(n.ids)
	return n.extraProj[r*dim : (r+1)*dim]
}

// box returns kd node i's box, or the overlay's when i is len(n.kd).
func (n *node) box(i int32, dim int) []float64 {
	if int(i) == len(n.kd) {
		return n.extraBox
	}
	return n.boxes[int(i)*2*dim : (int(i)+1)*2*dim]
}

// Build constructs the index from entries. Every entry must carry a
// non-empty path. A registered shot's Row is read in place; the shots
// without one have their features packed, once, into arenas the index keeps.
func Build(entries []*Entry, opts Options) (*Index, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("index: no entries")
	}
	d := entries[0].Shot.FeatureLen()
	for i, e := range entries {
		if n := e.Shot.FeatureLen(); n != d {
			return nil, fmt.Errorf("index: entry %d has %d feature dims, want %d", i, n, d)
		}
	}
	return build(entries, appendRows(nil, entries), d, opts)
}

// appendRows appends each entry's packed feature to rows: its shot's Row, or
// else its shot's two halves packed, all of them in one Pack.
func appendRows(rows []featrow.Row, entries []*Entry) []featrow.Row {
	at := len(rows)
	for _, e := range entries {
		rows = append(rows, e.Shot.Row)
	}
	featrow.Pack(rows[at:], func(i int) (color, texture []float64) {
		return entries[i].Shot.Color, entries[i].Shot.Texture
	})
	return rows
}

// BuildMatrix constructs the index from entries whose full features are
// laid out as rows of feats (row i belongs to entries[i], and i is the
// entry's ID); the entries' own features are not read. The matrix is packed,
// each row split where entry 0's colour part ends, and not retained; the
// entry slice is retained and must never be mutated afterwards: a built
// Index is immutable, and every concurrent search reads entry pointers
// straight out of it.
//
// The fit runs on up to GOMAXPROCS goroutines, all finished by the time
// BuildMatrix returns. It only reads entries and feats, so concurrent
// BuildMatrix calls may share them, as may searches of an older index.
func BuildMatrix(entries []*Entry, feats *mat.Dense, opts Options) (*Index, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("index: no entries")
	}
	if feats == nil || feats.R != len(entries) {
		return nil, fmt.Errorf("index: feature matrix must have one row per entry")
	}
	nc, nt := entries[0].Shot.FeatureDims()
	if nc+nt != feats.C {
		return nil, fmt.Errorf("index: feature matrix has %d columns, entry 0 has %d feature dims",
			feats.C, nc+nt)
	}
	rows := make([]featrow.Row, feats.R)
	featrow.Pack(rows, func(i int) (color, texture []float64) {
		row := feats.Row(i)
		return row[:nc], row[nc:]
	})
	return build(entries, rows, feats.C, opts)
}

// build fits the index over entries whose packed features rows holds
// (rows[i] is entries[i]'s, dim wide). Both slices are retained. Appending
// to the caller's arrays past the lengths handed in is fine — the index
// never looks there. The fit only reads entries and rows, so concurrent
// builds may share them, as may searches of an older index; that is how
// classminer's Library fits over the rows its videos keep while its serving
// index reads the same rows.
func build(entries []*Entry, rows []featrow.Row, dim int, opts Options) (*Index, error) {
	if len(entries) > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d entries exceed the int32 ID space", len(entries))
	}
	opts = opts.withDefaults()
	ix := &Index{opts: opts, root: newNode("database"), all: entries, rows: rows, dim: dim}
	for i, e := range entries {
		if len(e.Path) == 0 {
			return nil, fmt.Errorf("index: entry %d has empty path", i)
		}
		cur := ix.root
		for _, name := range e.Path {
			next, ok := cur.children[name]
			if !ok {
				next = newNode(name)
				cur.children[name] = next
				cur.order = append(cur.order, name)
			}
			cur = next
		}
		cur.ids = append(cur.ids, int32(i))
	}
	ix.leaves = appendLeaves(nil, ix.root)
	if err := ix.fit(ix.leaves); err != nil {
		return nil, err
	}
	ix.baseRows = len(entries)
	for _, leaf := range ix.leaves {
		ix.maxDim = max(ix.maxDim, leaf.reducer.Dim())
	}
	ix.tol = normTol(dim)
	ix.scratch = &sync.Pool{New: func() any {
		return &searchScratch{qmask: make([]uint64, (dim+63)/64)}
	}}
	return ix, nil
}

func newNode(name string) *node {
	return &node{name: name, children: map[string]*node{}}
}

// appendLeaves appends the leaves under n to dst, in the tree's
// deterministic order.
func appendLeaves(dst []*node, n *node) []*node {
	if len(n.children) == 0 {
		return append(dst, n)
	}
	for _, name := range n.order {
		dst = appendLeaves(dst, n.children[name])
	}
	return dst
}

// fit fits every leaf — its reducer, its rows' projections and its k-d
// split — as one job each, over up to GOMAXPROCS goroutines, the caller's
// among them. Workers take the leaves with the most rows first, so they
// start on the longest and finish close together; with one proc the jobs
// run inline. Each job reads only its own leaf's rows and writes only its
// own leaf, and no goroutine outlives the call.
func (ix *Index) fit(leaves []*node) error {
	order := slices.Clone(leaves)
	slices.SortStableFunc(order, func(a, b *node) int { return len(b.ids) - len(a.ids) })
	errs := make([]error, len(order))
	parallel(len(order), func(i int) { errs[i] = ix.fitLeaf(order[i]) })
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("index: leaf %q: %w", order[i].name, err)
		}
	}
	return nil
}

// parallel runs job(0) … job(n-1) over up to GOMAXPROCS goroutines, the
// caller's among them, and returns once all have run. Jobs are handed out in
// index order; with one proc or one job they run inline, in order.
func parallel(n int, job func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			job(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// fitLeaf fits the leaf's reducer over its rows, then lays the rows out
// (layoutLeaf).
func (ix *Index) fitLeaf(n *node) error {
	r, err := FitReducer(ix.rows, n.ids, ix.opts.SelectDims, ix.opts.PCADims)
	if err != nil {
		return err
	}
	n.reducer = r
	ix.layoutLeaf(n)
	return nil
}

// layoutLeaf projects the leaf's rows through its reducer, splits them into
// a k-d tree (splitKD), and stores ids, proj and lead in the tree's row
// order.
func (ix *Index) layoutLeaf(n *node) {
	dim := n.reducer.Dim()
	p := mat.NewDense(len(n.ids), dim)
	idx := make([]int32, 0, ix.dim)
	for r, id := range n.ids {
		n.reducer.ProjectRow(p.Row(r), ix.rows[id], idx)
	}
	var perm []int32
	n.kd, n.boxes, perm = splitKD(p, n.ids)
	h := leadDims(dim)
	ids := make([]int32, len(perm))
	n.proj = mat.NewDense(len(perm), dim)
	n.lead = make([]float64, len(perm)*h)
	for at, r := range perm {
		ids[at] = n.ids[r]
		copy(n.proj.Row(at), p.Row(int(r)))
		copy(n.lead[at*h:(at+1)*h], p.Row(int(r)))
	}
	n.ids = ids
}

// kdKey is one row of a k-d node under its split: its value on the split
// coordinate, its entry ID, which breaks ties, and its row in the
// projection.
type kdKey struct {
	v   float64
	id  int32
	row int32
}

func kdLess(a, b kdKey) bool { return a.v < b.v || (a.v == b.v && a.id < b.id) }

// splitKD builds the k-d tree over the rows of p (row r belongs to entry
// ids[r]). A node's box is the min and max of each coordinate over its
// rows; a node of more than subLeafRows rows splits on the coordinate whose
// box is widest (the first, on a tie) at the median of (value, entry ID),
// the lower half going left. It returns the nodes in pre-order, their boxes
// laid out as node.boxes is, and perm, the rows in tree order. It is a
// function of p and ids alone.
func splitKD(p *mat.Dense, ids []int32) (kd []kdNode, boxes []float64, perm []int32) {
	dim := p.C
	keys := make([]kdKey, len(ids))
	for r, id := range ids {
		keys[r] = kdKey{id: id, row: int32(r)}
	}
	var split func(lo, hi int)
	split = func(lo, hi int) {
		at := len(kd)
		kd = append(kd, kdNode{lo: int32(lo), hi: int32(hi), right: -1})
		boxes = append(boxes, make([]float64, 2*dim)...)
		mins, maxs := boxes[at*2*dim:at*2*dim+dim], boxes[at*2*dim+dim:(at+1)*2*dim]
		copy(mins, p.Row(int(keys[lo].row)))
		copy(maxs, mins)
		for _, key := range keys[lo+1 : hi] {
			for c, x := range p.Row(int(key.row)) {
				if x < mins[c] {
					mins[c] = x
				}
				if x > maxs[c] {
					maxs[c] = x
				}
			}
		}
		if hi-lo <= subLeafRows {
			return
		}
		axis := 0
		for c := range mins {
			if maxs[c]-mins[c] > maxs[axis]-mins[axis] {
				axis = c
			}
		}
		for i := lo; i < hi; i++ {
			keys[i].v = p.Row(int(keys[i].row))[axis]
		}
		mid := lo + (hi-lo)/2
		selectKth(keys[lo:hi], mid-lo)
		split(lo, mid)
		kd[at].right = int32(len(kd))
		split(mid, hi)
	}
	split(0, len(ids))
	perm = make([]int32, len(keys))
	for i, key := range keys {
		perm[i] = key.row
	}
	return kd, boxes, perm
}

// selectKth reorders a so that a[k] is the element kdLess ranks k-th and
// every element before it ranks lower: Hoare's quickselect on the median of
// three. The keys are distinct (entry IDs are), so it terminates.
func selectKth(a []kdKey, k int) {
	for len(a) > 2 {
		m, last := len(a)/2, len(a)-1
		if kdLess(a[m], a[0]) {
			a[m], a[0] = a[0], a[m]
		}
		if kdLess(a[last], a[0]) {
			a[last], a[0] = a[0], a[last]
		}
		if kdLess(a[last], a[m]) {
			a[last], a[m] = a[m], a[last]
		}
		pivot := a[m]
		i, j := 0, last
		for i <= j {
			for kdLess(a[i], pivot) {
				i++
			}
			for kdLess(pivot, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			a = a[:j+1]
		case k >= i:
			a, k = a[i:], k-i
		default:
			return
		}
	}
	if len(a) == 2 && kdLess(a[1], a[0]) {
		a[0], a[1] = a[1], a[0]
	}
}

// boundDims is how many leading reduced dimensions the partial bound sums
// for every live row of a k-d leaf the search opens. A leaf's PCA orders
// its dimensions by variance, so the leading ones carry most of the bound;
// the rest, and the dropped norm, are added only for the rows whose partial
// bound does not already exclude them.
const boundDims = 4

// leadDims is how many coordinates of a dim-wide reduced space the partial
// bound sums: boundDims principal components at most, never the dropped
// norm, whose term is deflated (normGap).
func leadDims(dim int) int { return min(boundDims, dim-1) }

// The search stops at the first bound that exceeds
// kth·(1+refineEps)+refineSlack, kth being the running k-th exact squared
// distance. The margins absorb rounding: a computed bound may exceed the
// exact-arithmetic one by a few ulps of the coordinates it sums, and a
// reducer's components are orthonormal only to rounding. On
// multiLeafCorpus(12, 800), 1.3 % of 1.6 M computed row bounds exceed the
// exact squared distance, by at most 1.5e-15 of it; a box bound is at most
// the bound of any row in the box, up to the same rounding. The relative
// term covers distances of any size, the absolute one a kth of zero (exact
// duplicates of the query). Both are powers of two, so a test can build
// rows that sit exactly on the margin.
const (
	refineEps   = 0x1p-30 // ≈ 9.3e-10
	refineSlack = 0x1p-40 // ≈ 9.1e-13
)

// margin is the bound past which a row cannot rank among the k best once
// kth is the k-th best exact squared distance found.
//
// The dropped norm's term is bounded, not measured. For a leaf that keeps
// the coordinates S and drops D, ‖q−x‖² = ‖(q−x)_S‖² + ‖q_D−x_D‖², and
// ‖q_D−x_D‖ ≥ |e(q)−e(x)| with e(y) = ‖y_D‖. With u = 2⁻⁵³ and m ≤ dim
// summed elements, normAcc computes ê(y) = e(y)·(1+θ), |θ| ≤ η = (m+4)·u:
// its scalings are exact, each square is rounded once and each sum m−1
// times at most, then the combining add and the square root once each, and
// the cap (normCap) moves no two norms apart — up to an absolute 2⁻¹⁰⁷⁴
// when ê is subnormal. So |e(q)−e(x)| ≥ |ê(q)−ê(x)| − η/(1−η)·(ê(q)+ê(x)),
// and computing that difference, the sum and their product rounds it up by
// at most 2u·(ê(q)+ê(x)) more. normGap subtracts tol·(ê(q)+ê(x)) with
// tol = normTol(dim) = (dim+8)·2⁻⁵² ≥ η/(1−η) + 2u, so the gap it returns
// is at most the exact |e(q)−e(x)| times (1+u): its square exceeds the
// exact term by a relative few ulps, as every other term of a bound may,
// which refineEps covers, and the subnormal case adds less than
// refineSlack. A box's gap is its rows' at the nearer face of its e range,
// and the gap grows with a face's distance from ê(q), so it bounds every
// row's. No tuned factor enters: the argument holds for near-duplicate
// rows whose dropped norms are large, where a gap of a few ulps of the
// norm exceeds the rows' whole distance.
func margin(kth float64) float64 { return kth*(1+refineEps) + refineSlack }

// normTol is the relative allowance normGap deflates a dropped-norm gap by
// in a dim-wide feature space (see margin).
func normTol(dim int) float64 { return float64(dim+8) * 0x1p-52 }

// normGap is the dropped-norm gap between a query's norm eq and the range
// [lo, hi] of a box's (a row's when lo = hi), deflated by tol of the two
// norms it takes: no more than the exact gap of any row in the range.
func normGap(eq, lo, hi, tol float64) float64 {
	if g := lo - eq; g > 0 {
		return max(0, g-tol*(lo+eq))
	}
	if g := eq - hi; g > 0 {
		return max(0, g-tol*(eq+hi))
	}
	return 0
}

// cand is one box in a search's bound heap — k-d node unit of
// Index.leaves[leaf], the leaf's overlay when unit is len(kd), or the whole
// leaf, not yet projected, when unit is unprojected — keyed by lb, its
// squared distance to the query's projection (a leaf's: its dropped-norm
// gap alone): a lower bound on the full-space squared distance of every row
// in it.
type cand struct {
	lb         float64
	leaf, unit int32
}

// unprojected is the unit of a leaf's heap entry before the query is
// projected into its space.
const unprojected = -1

// candLess orders the heap by ascending lb, then position, so the work a
// search does is a function of the index and the query alone.
func candLess(a, b cand) bool {
	if a.lb != b.lb {
		return a.lb < b.lb
	}
	if a.leaf != b.leaf {
		return a.leaf < b.leaf
	}
	return a.unit < b.unit
}

// bound is one live row of an opened box: entry id, and lb, its squared
// distance to the query in the leaf's reduced space — a lower bound on
// their full-space squared distance, as the box's is.
type bound struct {
	lb float64
	id int32
}

func pushCand(h []cand, c cand) []cand {
	h = append(h, c)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !candLess(h[i], h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	return h
}

func popCand(h []cand) []cand {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		least := l
		if r := l + 1; r < len(h) && candLess(h[r], h[l]) {
			least = r
		}
		if !candLess(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return h
}

// heapItem is one bounded top-k entry ordered by (sq, id); id breaks ties
// deterministically.
type heapItem struct {
	sq float64
	id int32
}

// searchScratch is the per-call mutable state of one search, recycled
// through Index.scratch so steady-state searches allocate nothing.
type searchScratch struct {
	qmask     []uint64  // the query's presence mask, for the exact distances
	norms     []normAcc // the query's dropped norm in Index.leaves[i]'s space
	lproj     []float64 // query projection into Index.leaves[i]'s space at i*maxDim
	projected int       // leaves the query was projected into
	heap      []cand
	rows      []bound    // the opened box's rows that its bound keeps
	top       []heapItem // the k best exact distances so far
}

// leafQuery is the slot holding the query's projection into the space of
// Index.leaves[i].
func (sc *searchScratch) leafQuery(i int, leaf *node, maxDim int) []float64 {
	return sc.lproj[i*maxDim : i*maxDim+leaf.reducer.Dim()]
}

// Search finds the k nearest indexed shots to the query feature (a 266-dim
// Shot.Feature vector) and writes them into dst (grown only when its
// capacity is insufficient, so a reused buffer makes steady-state searches
// allocation-free; nil is fine). It returns the ranked results, each with
// its exact full-space Euclidean distance to the query, and the §6.2 cost
// statistics. The answer is FlatSearch's over every live row: the same
// entries, in (distance, entry ID) order, at the same Dist bits. The
// returned slice aliases dst.
//
// When sp is a live span, three stages each record a child span: "project"
// (the query's dropped norm in every leaf's space and the bound of every
// leaf drawn from it; its "leaves" attribute counts the leaves the query
// was then projected into), "scan" (the best-first walk over leaves, boxes
// and rows: the projections into the leaves it opens, the bounds and the
// full-space distances) and "rank" (the k hits sorted and written out). A
// nil sp (the untraced and unsampled paths) costs nothing — spans come
// from the trace's pooled arena, so the zero-alloc search contract holds
// either way.
//
// Search is safe for concurrent use by any number of goroutines: a built
// Index is immutable, and all mutable search state — the Stats accumulator
// included — lives in pooled per-call scratch, never shared. The serving
// layer relies on this to answer queries in parallel against one index
// snapshot.
func (ix *Index) Search(dst []Result, query []float64, k int, sp *trace.Span) ([]Result, Stats) {
	var stats Stats
	if k <= 0 {
		k = 1
	}
	sc := ix.scratch.Get().(*searchScratch)
	sc.qmask = featrow.Mask(sc.qmask, query)
	project := sp.Start("project")
	ix.project(query, sc)
	project.End()
	stage := sp.Start("scan")
	top := ix.scan(query, k, sc, &stats)
	stage.SetInt("candidates", int64(stats.Candidates))
	stage.SetInt("exact", int64(stats.Exact))
	stage.End()
	project.SetInt("leaves", int64(sc.projected))
	stage = sp.Start("rank")
	sortItems(top)
	if cap(dst) < len(top) {
		dst = make([]Result, len(top))
	} else {
		dst = dst[:len(top)]
	}
	for i, it := range top {
		dst[i] = Result{Entry: ix.all[it.id], Dist: math.Sqrt(it.sq)}
	}
	stage.End()
	sc.top = top[:0]
	ix.scratch.Put(sc)
	return dst, stats
}

// SearchInto is Search with no trace. It stays only because the
// benchmark's probe (cmd/loadgen) calls it; ROADMAP item 1(d) retires it.
func (ix *Index) SearchInto(dst []Result, query []float64, k int) ([]Result, Stats) {
	return ix.Search(dst, query, k, nil)
}

// project is the search's first stage: in one pass over the query's
// non-zero coordinates (qmask), in index order, it accumulates the query's
// dropped norm in every leaf's space — the sums ProjectInto accumulates,
// bit for bit — and seeds the bound heap with one unprojected entry per
// leaf, bounded by leafBound.
func (ix *Index) project(query []float64, sc *searchScratch) {
	n := len(ix.leaves)
	if len(sc.norms) < n {
		sc.norms = make([]normAcc, n)
	}
	if need := n * ix.maxDim; len(sc.lproj) < need {
		sc.lproj = make([]float64, need)
	}
	norms := sc.norms[:n]
	clear(norms)
	for w, word := range sc.qmask {
		for ; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			slot, sq := normTerm(query[j])
			for i, leaf := range ix.leaves {
				if leaf.reducer.pos[j] < 0 {
					norms[i][slot] += sq
				}
			}
		}
	}
	sc.heap, sc.projected = sc.heap[:0], 0
	for i, leaf := range ix.leaves {
		sc.heap = pushCand(sc.heap, cand{lb: ix.leafBound(leaf, norms[i].norm()), leaf: int32(i), unit: unprojected})
	}
}

// leafBound bounds every row of leaf by its dropped-norm term alone: the
// gap between eq, the query's dropped norm in the leaf's space, and the e
// range of the leaf's root box or, when nearer, of its overlay box.
func (ix *Index) leafBound(leaf *node, eq float64) float64 {
	dim := leaf.reducer.Dim()
	g := boxNormGap(eq, leaf.box(0, dim), ix.tol)
	if len(leaf.extraIDs) > 0 {
		g = min(g, boxNormGap(eq, leaf.extraBox, ix.tol))
	}
	return g * g
}

// boxNormGap is normGap between eq and the e range of box (a leaf's box:
// dim minima, then dim maxima, the dropped norm last in each).
func boxNormGap(eq float64, box []float64, tol float64) float64 {
	dim := len(box) / 2
	return normGap(eq, box[dim-1], box[2*dim-1], tol)
}

// pushBox pushes box unit of leaves[at] (leaf), bounded by its squared
// distance to the query's projection p.
func (ix *Index) pushBox(h []cand, leaf *node, p []float64, at, unit int32, stats *Stats) []cand {
	stats.DistanceOps++
	stats.FloatOps += len(p)
	return pushCand(h, cand{lb: boxSqDist(p, leaf.box(unit, len(p)), ix.tol), leaf: at, unit: unit})
}

// boxSqDist is the squared distance from p to the box (len(p) minima, then
// len(p) maxima): per principal component, how far p lies outside the
// box's range, and then the dropped norm's deflated gap (normGap). No row
// in the box is nearer p in the reduced space: each component's gap is at
// most the row's, rounding is monotone, and normGap bounds every row's.
func boxSqDist(p, box []float64, tol float64) float64 {
	d := len(p) - 1
	mins, maxs := box[:len(p)], box[len(p):2*len(p)]
	var sq float64
	for c, x := range p[:d] {
		if g := mins[c] - x; g > 0 {
			sq += g * g
		} else if g := x - maxs[c]; g > 0 {
			sq += g * g
		}
	}
	g := normGap(p[d], mins[d], maxs[d], tol)
	return sq + g*g
}

// scan is the search's second stage, a best-first k-NN over the bound heap
// (Hjaltason & Samet's incremental nearest-neighbour walk over the boxes,
// with Seidl & Kriegel's multi-step filter-and-refine inside a box). It pops
// the least entry until its bound passes margin(kth): an unprojected leaf
// has the query projected into its space (ProjectInto) and pushes its root
// box and, when it has one, its overlay box; a k-d node pushes its two
// children; a k-d leaf, or the overlay, has its rows refined (refineRows).
// Every bound lower-bounds the full-space distance of the rows it stands
// for, up to the margin, so no row of an entry left in the heap can enter
// the top k: the answer is FlatSearch's over every live row. It returns the
// top k, a heap.
func (ix *Index) scan(query []float64, k int, sc *searchScratch, stats *Stats) []heapItem {
	top, h := sc.top[:0], sc.heap
	for len(h) > 0 && h[0].lb <= margin(heapBound(top, k)) {
		c := h[0]
		h = popCand(h)
		leaf := ix.leaves[c.leaf]
		p := sc.leafQuery(int(c.leaf), leaf, ix.maxDim)
		switch {
		case c.unit == unprojected:
			leaf.reducer.ProjectInto(p, query)
			sc.projected++
			h = ix.pushBox(h, leaf, p, c.leaf, 0, stats)
			if len(leaf.extraIDs) > 0 {
				h = ix.pushBox(h, leaf, p, c.leaf, int32(len(leaf.kd)), stats)
			}
		case int(c.unit) == len(leaf.kd):
			top = ix.refineRows(top, query, k, sc, p, leaf, leaf.extraIDs, leaf.extraProj, len(p), int32(len(leaf.ids)), stats)
		case leaf.kd[c.unit].right >= 0:
			h = ix.pushBox(h, leaf, p, c.leaf, c.unit+1, stats)
			h = ix.pushBox(h, leaf, p, c.leaf, leaf.kd[c.unit].right, stats)
		default:
			nd, hd := leaf.kd[c.unit], leadDims(len(p))
			top = ix.refineRows(top, query, k, sc, p, leaf, leaf.ids[nd.lo:nd.hi], leaf.lead[int(nd.lo)*hd:], hd, nd.lo, stats)
		}
	}
	stats.DistanceOps += stats.Exact
	stats.FloatOps += stats.Exact * len(query)
	sc.heap = h[:0]
	return top
}

// refineRows is the filter-and-refine over one opened box of leaf: ids[r] is
// leaf row first+r, whose leading leadDims(len(p)) reduced coordinates
// start at lead[r*stride]. Each live row's partial bound over them is
// completed (tailSq) unless it passes margin(kth); the rows whose complete
// bound does not pass it get their exact distances offered to the top k in
// ascending (bound, ID) order, until the next bound passes the k-th
// distance found so far. The four-wide partial bound, every leaf's at the
// default PCADims, is unrolled; it sums in the loop's order.
func (ix *Index) refineRows(top []heapItem, query []float64, k int, sc *searchScratch, p []float64, leaf *node, ids []int32, lead []float64, stride int, first int32, stats *Stats) []heapItem {
	d, hd := len(p), leadDims(len(p))
	cut := margin(heapBound(top, k))
	rows := sc.rows[:0]
	bounded := 0
	for r, id := range ids {
		if masked(ix.removed, id) {
			continue
		}
		bounded++
		var lb float64
		if hd == 4 {
			x := lead[r*stride : r*stride+4]
			d0, d1, d2, d3 := p[0]-x[0], p[1]-x[1], p[2]-x[2], p[3]-x[3]
			lb = d0*d0 + d1*d1 + d2*d2 + d3*d3
		} else {
			for c, v := range lead[r*stride : r*stride+hd] {
				dv := p[c] - v
				lb += dv * dv
			}
		}
		if lb > cut {
			continue
		}
		stats.FloatOps += d - hd
		if lb += tailSq(p, leaf.projRow(first+int32(r), d), hd, ix.tol); lb > cut {
			continue
		}
		// Insertion: a k-d leaf holds at most subLeafRows rows, and an
		// overlay what the caller's staleness budget lets in before a
		// refit.
		rows = append(rows, bound{lb: lb, id: id})
		for i := len(rows) - 1; i > 0 && boundLess(rows[i], rows[i-1]); i-- {
			rows[i], rows[i-1] = rows[i-1], rows[i]
		}
	}
	stats.Candidates += bounded
	stats.DistanceOps += bounded
	stats.FloatOps += bounded * hd
	for _, b := range rows {
		if b.lb > margin(heapBound(top, k)) {
			break
		}
		top = ix.offerExact(top, query, sc.qmask, k, b.id)
		stats.Exact++
	}
	sc.rows = rows[:0]
	return top
}

// boundLess is the order a box's rows are refined in: ascending (lb, id).
func boundLess(a, b bound) bool {
	return a.lb < b.lb || (a.lb == b.lb && a.id < b.id)
}

// tailSq completes a partial bound: the squared distance between the query
// projection p and a row's reduced feature x over the principal components
// from h on, then the dropped norm's deflated gap (normGap).
func tailSq(p, x []float64, h int, tol float64) float64 {
	d := len(p) - 1
	var sq float64
	for c, v := range x[h:d] {
		dv := p[h+c] - v
		sq += dv * dv
	}
	g := normGap(p[d], x[d], x[d], tol)
	return sq + g*g
}

// offerExact offers entry id to the top-k heap at its exact full-space
// squared distance to the query (qmask is its presence mask), abandoned once
// it cannot enter.
func (ix *Index) offerExact(top []heapItem, query []float64, qmask []uint64, k int, id int32) []heapItem {
	sq := ix.rows[id].SqDistBounded(query, qmask, heapBound(top, k))
	return heapOffer(top, k, heapItem{sq: sq, id: id})
}

// heapBound is the distance a candidate must not exceed to enter a top-k
// heap: that of the worst kept item once k are kept, no bound before.
func heapBound(h []heapItem, k int) float64 {
	if len(h) < k {
		return math.Inf(1)
	}
	return h[0].sq
}

// heapOffer keeps it in the top-k heap h when it ranks among the k best
// offered so far. h becomes a max-heap the moment it holds k items; an
// early-abandoned distance exceeds heapBound and is dropped here.
func heapOffer(h []heapItem, k int, it heapItem) []heapItem {
	if len(h) < k {
		h = append(h, it)
		if len(h) == k {
			heapifyItems(h)
		}
	} else if itemGreater(h[0], it) {
		h[0] = it
		siftDown(h, 0)
	}
	return h
}

// itemGreater orders heap items by (sq, id) so the max-heap root is the
// current worst kept candidate and ties resolve deterministically.
func itemGreater(a, b heapItem) bool {
	return a.sq > b.sq || (a.sq == b.sq && a.id > b.id)
}

func heapifyItems(h []heapItem) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func siftDown(h []heapItem, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && itemGreater(h[r], h[l]) {
			big = r
		}
		if !itemGreater(h[big], h[i]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// sortItems orders items ascending by (sq, id) via in-place heapsort — no
// comparator closures, no allocations.
func sortItems(h []heapItem) {
	heapifyItems(h)
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
}

// shotSqDistBounded is the full-dimension squared distance between a query
// (qmask its presence mask) and a shot's (colour ++ texture) feature, packed
// or not, computed without materialising the concatenated vector and
// abandoning once the sum exceeds bound. Both forms give the same bits.
func shotSqDistBounded(s *vidmodel.Shot, query []float64, qmask []uint64, bound float64) float64 {
	if !s.Row.IsZero() {
		return s.Row.SqDistBounded(query, qmask, bound)
	}
	return featrow.SplitSqDistBounded(s.Color, s.Texture, query, bound)
}

// flatShardMin is the smallest per-goroutine chunk worth spawning for; it
// also gates whether FlatSearch shards at all.
const flatShardMin = 256

// FlatSearch is the unindexed baseline of Eq. (24): every entry in the
// database is compared with the query in the full feature space. k <= 0
// ranks the whole database. Large databases are scanned in parallel
// (goroutine per chunk, each keeping a local top-k, merged at the end);
// results are deterministic regardless of sharding because ranking uses
// the (distance, entry position) total order.
func FlatSearch(entries []*Entry, query []float64, k int) ([]Result, Stats) {
	var stats Stats
	n := len(entries)
	for _, e := range entries {
		stats.DistanceOps++
		stats.FloatOps += e.Shot.FeatureLen()
	}
	stats.Candidates = n
	if n == 0 {
		return nil, stats
	}
	if k <= 0 || k > n {
		k = n
	}
	workers := runtime.GOMAXPROCS(0)
	if max := n / flatShardMin; workers > max {
		workers = max
	}
	qmask := featrow.Mask(nil, query)
	var top []heapItem
	if workers <= 1 {
		top = flatScanTopK(entries, 0, query, qmask, k)
		sortItems(top)
	} else {
		shards := make([][]heapItem, workers)
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				shards[w] = flatScanTopK(entries[lo:hi], lo, query, qmask, k)
			}(w, lo, hi)
		}
		wg.Wait()
		for _, s := range shards {
			top = append(top, s...)
		}
		sortItems(top)
		if len(top) > k {
			top = top[:k]
		}
	}
	results := make([]Result, len(top))
	for i, it := range top {
		results[i] = Result{Entry: entries[it.id], Dist: math.Sqrt(it.sq)}
	}
	return results, stats
}

// flatScanTopK scans one chunk keeping a bounded top-k; off converts chunk
// positions back to database positions for deterministic tie-breaking.
func flatScanTopK(entries []*Entry, off int, query []float64, qmask []uint64, k int) []heapItem {
	heap := make([]heapItem, 0, k)
	for i, e := range entries {
		sq := shotSqDistBounded(e.Shot, query, qmask, heapBound(heap, k))
		heap = heapOffer(heap, k, heapItem{sq: sq, id: int32(off + i)})
	}
	return heap
}

// Row returns the packed feature of entry id as the index reads it.
func (ix *Index) Row(id int) featrow.Row { return ix.rows[id] }

// Dim returns the feature dimensionality every query must have.
func (ix *Index) Dim() int { return ix.dim }

// Size returns the number of live indexed entries (inserted entries count,
// removed entries do not).
func (ix *Index) Size() int { return len(ix.all) - ix.removedCount }
