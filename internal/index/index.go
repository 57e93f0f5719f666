// Package index implements the cluster-based hierarchical database index of
// §2 and §6.2: a tree derived from the concept hierarchy whose non-leaf
// nodes summarise their content with multiple centers (because high-level
// concepts mix several visual components, a single Gaussian cannot model
// them). Search descends only into relevant units and computes distances in
// reduced feature subspaces: at every visited leaf a row's distance in the
// leaf's own subspace bounds its full-space distance from below, so
// full-space distances are spent only on the rows the bound cannot exclude,
// reproducing the Tc ≪ Te total-cost comparison of Eqs. (24)–(25) with the
// answer a full scan of the visited leaves gives.
//
// Storage is flat: entries are numbered at Build, the full feature of entry
// i is read through rows[i] — the zero-suppressed row its shot already
// holds (Shot.Row), never a copy; an unregistered shot's dense feature is
// packed once — and every leaf precomputes one projection matrix over its
// rows. The fit and the projections read the packed rows through scratch, a
// row or a few at a time, and the exact distance reads them as they are. The
// search hot path runs on pooled per-call scratch (query projections, bound
// lists, bounded top-k max-heaps), so steady-state SearchInto performs zero
// heap allocations.
//
// The fit is a pure function of its rows, bit for bit. Its one random step,
// k-means++ seeding, draws from the seeded source node after node in one
// fixed order; everything else — the reducers, the projections, the Lloyd
// refinements — depends only on a node's rows and runs on up to GOMAXPROCS
// goroutines that the build starts and waits for. The index Build or
// BuildMatrix returns is therefore the same at any GOMAXPROCS.
package index

import (
	"fmt"
	"math"
	"math/rand"
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
	Centers    int // centers per non-leaf node (default 3)
	SelectDims int // variance-selected coordinates (default 48)
	PCADims    int // principal components per node (default 16)
	Beam       int // children explored per level during search (default 2)
	Seed       int64
}

func (o Options) withDefaults() Options {
	if o.Centers <= 0 {
		o.Centers = 3
	}
	if o.SelectDims <= 0 {
		o.SelectDims = 48
	}
	if o.PCADims <= 0 {
		o.PCADims = 16
	}
	if o.Beam <= 0 {
		o.Beam = 2
	}
	return o
}

// Stats counts the work a search performed, the quantities of Eqs. (24)
// and (25): distance computations per level, the float dimensions touched,
// and the size of the candidate set.
type Stats struct {
	DistanceOps int // total distance computations, reduced and full-space
	FloatOps    int // Σ dims actually touched over all distance computations
	Candidates  int // live rows of the visited leaves, each bounded once
	Exact       int // full-space distances the refine computed
	// Closed counts the refines that stopped on the bound rather than the
	// budget, whose answers are therefore exact over the visited leaves: 1
	// or 0 for one index search, summed where searches merge.
	Closed int
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
	all  []*Entry
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

	maxDim int // widest reducer output across nodes (scratch sizing)
	// scratch is shared by every index in a copy-on-write chain (clones
	// copy the pointer), so pooled buffers survive Insert/Remove and
	// steady-state searches stay allocation-free.
	scratch *sync.Pool
}

type node struct {
	name     string
	children map[string]*node
	order    []string // deterministic child order
	// Non-leaf routing state.
	reducer *Reducer
	centers map[string][][]float64 // child name -> centers in this node's space
	// Leaf state, flat storage: ids are global entry IDs in ascending
	// order, and proj row r is the reduced feature of entry ids[r].
	ids  []int32
	proj *mat.Dense
	// lead holds proj's leading min(boundDims, dim) columns contiguously:
	// the part of every row the bound pass reads, a quarter of the cache
	// lines proj spreads it over.
	lead []float64
	// Incremental overlay: entries inserted after the fit. extraIDs extends
	// ids (leaf row len(ids)+i refers to extraIDs[i]) and extraProj holds
	// their reduced features (reducer.Dim() wide rows); a search bounds
	// them like the base rows.
	extraIDs  []int32
	extraProj []float64
}

// projRow returns the leaf-space reduced feature of a leaf row.
func (n *node) projRow(row int32, dim int) []float64 {
	if int(row) < len(n.ids) {
		return n.proj.Row(int(row))
	}
	r := int(row) - len(n.ids)
	return n.extraProj[r*dim : (r+1)*dim]
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
	if err := ix.fit(rand.New(rand.NewSource(opts.Seed + 1))); err != nil {
		return nil, err
	}
	ix.baseRows = len(entries)
	ix.maxDim = maxReducerDim(ix.root)
	maxDim := ix.maxDim
	ix.scratch = &sync.Pool{New: func() any {
		return &searchScratch{qproj: make([]float64, maxDim), qmask: make([]uint64, (dim+63)/64)}
	}}
	return ix, nil
}

func newNode(name string) *node {
	return &node{name: name, children: map[string]*node{}}
}

// fitNode is one node of the tree as the fit sees it.
type fitNode struct {
	*node
	parent int     // position of the parent in the pre-order list, -1 at the root
	ids    []int32 // the node's entry IDs: a leaf's own, else its children's concatenated in order
}

// preorder appends n's subtree to out, each node before its children and
// children in their deterministic order, computing every node's entry-ID
// list once on the way back up. It returns out and n's ID list.
func preorder(n *node, parent int, out []fitNode) ([]fitNode, []int32) {
	at := len(out)
	out = append(out, fitNode{node: n, parent: parent, ids: n.ids})
	if len(n.children) == 0 {
		return out, n.ids
	}
	var ids []int32
	for _, name := range n.order {
		var cids []int32
		out, cids = preorder(n.children[name], at, out)
		ids = append(ids, cids...)
	}
	out[at].ids = ids
	return out, ids
}

// fitJob is one unit of a fit phase: rows sizes it, for scheduling.
type fitJob struct {
	rows int
	run  func()
}

// runJobs runs the jobs over up to GOMAXPROCS goroutines, the caller's among
// them, and returns once all have run. Workers pull the jobs with the most
// rows first, so they start on the longest and finish close together; with
// one proc the jobs run inline. No goroutine outlives the call.
func runJobs(jobs []fitJob) {
	slices.SortStableFunc(jobs, func(a, b fitJob) int { return b.rows - a.rows })
	parallel(len(jobs), func(i int) { jobs[i].run() })
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

func maxReducerDim(n *node) int {
	d := 0
	if n.reducer != nil {
		d = n.reducer.Dim()
	}
	for _, c := range n.children {
		if cd := maxReducerDim(c); cd > d {
			d = cd
		}
	}
	return d
}

// fit trains every node: reducers and per-child centers at non-leaf nodes,
// the projection matrix at leaves. Only k-means seeding draws random
// numbers, so only it runs one node after another, drawing from rng in the
// order a recursive fit draws (a node's children in order, each child's
// centres before anything in its subtree). Every other step is a pure
// function of its rows and runs on parallel workers, so the fit is
// bit-identical at any GOMAXPROCS. The phases:
//
//	(a) every node's reducer, in parallel;
//	(b) every child's rows projected into its parent's space, in parallel;
//	(c) every child's k-means++ seeds over (b)'s points, in pre-order;
//	(d) every child's Lloyd refinement of its seeds, and every leaf's
//	    projection, in parallel.
func (ix *Index) fit(rng *rand.Rand) error {
	nodes, _ := preorder(ix.root, -1, nil)
	for _, fn := range nodes {
		if len(fn.ids) == 0 {
			return fmt.Errorf("index: node %q has no entries", fn.name)
		}
	}

	// (a) A node with one child holds exactly the child's rows, in the same
	// order, so its reducer is the child's: fit it once, then hand it up.
	var jobs []fitJob
	errs := make([]error, len(nodes))
	for i, fn := range nodes {
		if len(fn.order) != 1 {
			i, fn := i, fn
			jobs = append(jobs, fitJob{len(fn.ids), func() {
				fn.reducer, errs[i] = FitReducer(ix.rows, fn.ids, ix.opts.SelectDims, ix.opts.PCADims)
			}})
		}
	}
	runJobs(jobs)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("index: node %q: %w", nodes[i].name, err)
		}
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		if n := nodes[i]; len(n.order) == 1 {
			n.reducer = n.children[n.order[0]].reducer
		}
	}

	// (b) pts[i] holds nodes[i]'s rows in its parent's reduced space.
	pts := make([][][]float64, len(nodes))
	jobs = jobs[:0]
	for i, fn := range nodes[1:] {
		i, fn := i+1, fn
		jobs = append(jobs, fitJob{len(fn.ids), func() {
			r := nodes[fn.parent].reducer
			p := mat.NewDense(len(fn.ids), r.Dim())
			sel := make([]float64, len(r.selected))
			for row, id := range fn.ids {
				r.ProjectRow(p.Row(row), ix.rows[id], sel)
			}
			pts[i] = p.Rows()
		}})
	}
	runJobs(jobs)

	// (c)
	centers := make([][][]float64, len(nodes))
	for i := 1; i < len(nodes); i++ {
		var err error
		if centers[i], err = mat.KMeansSeeds(pts[i], min(ix.opts.Centers, len(pts[i])), rng); err != nil {
			return fmt.Errorf("index: centers for %q: %w", nodes[i].name, err)
		}
	}

	// (d)
	jobs = jobs[:0]
	for i, fn := range nodes {
		i, fn := i, fn
		if i > 0 {
			jobs = append(jobs, fitJob{len(fn.ids), func() { mat.Lloyd(pts[i], centers[i], 40) }})
		}
		if len(fn.children) == 0 {
			jobs = append(jobs, fitJob{len(fn.ids), func() { ix.fitLeaf(fn.node) }})
		}
	}
	runJobs(jobs)
	for i, fn := range nodes[1:] {
		parent := nodes[fn.parent]
		if parent.centers == nil {
			parent.centers = make(map[string][][]float64, len(parent.order))
		}
		parent.centers[fn.name] = centers[i+1]
	}
	return nil
}

// fitLeaf projects the leaf's entries into one contiguous matrix, and
// copies its leading boundDims columns into lead.
func (ix *Index) fitLeaf(n *node) {
	dim := n.reducer.Dim()
	h := min(boundDims, dim)
	n.proj = mat.NewDense(len(n.ids), dim)
	n.lead = make([]float64, len(n.ids)*h)
	sel := make([]float64, len(n.reducer.selected))
	for r, id := range n.ids {
		n.reducer.ProjectRow(n.proj.Row(r), ix.rows[id], sel)
		copy(n.lead[r*h:(r+1)*h], n.proj.Row(r))
	}
}

// bound is one live row of a visited leaf and lb, the squared distance
// between the row and the query in the leaf's reduced space: a lower bound
// on their full-space squared distance, because a reducer selects
// coordinates and then applies an orthonormal projection, neither of which
// lengthens a vector (GEMINI's lower-bounding lemma).
type bound struct {
	lb  float64
	id  int32 // global entry ID
	row int32 // leaf-local row; -1 once the row has an exact distance
}

// boundLess is the order the refine visits rows in: ascending (lb, id).
func boundLess(a, b bound) bool {
	return a.lb < b.lb || (a.lb == b.lb && a.id < b.id)
}

// popBound removes the least bound from the min-heap h and returns the rest.
// The refine stops after a few pops, so a heap, built in linear time, beats
// sorting every survivor.
func popBound(h []bound) []bound {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	siftBound(h, 0)
	return h
}

func siftBound(h []bound, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		least := l
		if r := l + 1; r < len(h) && boundLess(h[r], h[l]) {
			least = r
		}
		if !boundLess(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
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
	qproj  []float64 // query projection at the node being routed (maxDim)
	qmask  []uint64  // the query's presence mask, for the exact distances
	leaves []*node
	lproj  []float64 // query projection into leaves[i]'s space at i*maxDim
	ends   []int
	scored []scoredChild
	bounds []bound    // leaves[i]'s live rows end at ends[i]; then the survivors
	pool   []heapItem // the best-routed leaf's seedPool·k least partial bounds
	seeds  []heapItem // the k of them with the least complete bounds
	top    []heapItem // the k best exact distances so far
}

type scoredChild struct {
	child *node
	dist  float64
}

// leafQuery is the slot holding the query's projection into the space of
// leaves[i]: scan fills it, rank reads it back.
func (sc *searchScratch) leafQuery(i int, leaf *node, maxDim int) []float64 {
	return sc.lproj[i*maxDim : i*maxDim+leaf.reducer.Dim()]
}

// Search finds the k nearest indexed shots to the query feature (a 266-dim
// Shot.Feature vector), descending only through the most relevant database
// units. It returns the ranked results, each with its exact full-space
// Euclidean distance to the query, and the §6.2 cost statistics.
//
// Search is safe for concurrent use by any number of goroutines: a built
// Index is immutable, and all mutable search state — the Stats accumulator
// included — lives in pooled per-call scratch, never shared. The serving
// layer relies on this to answer queries in parallel against one index
// snapshot. Search allocates only the returned result slice; reuse one via
// SearchInto to reach zero allocations per query.
func (ix *Index) Search(query []float64, k int) ([]Result, Stats) {
	return ix.SearchInto(nil, query, k)
}

// SearchInto is Search writing its results into dst (grown only when its
// capacity is insufficient, so a reused buffer makes steady-state searches
// allocation-free). The returned slice aliases dst.
func (ix *Index) SearchInto(dst []Result, query []float64, k int) ([]Result, Stats) {
	return ix.SearchIntoSpans(dst, query, k, nil)
}

// SearchIntoSpans is SearchInto with per-stage tracing: when sp is a live
// span, the hierarchical descent ("project" — the per-level subspace
// projections), the bound pass over the visited leaves ("scan") and the
// refine ("rank" — the exact distances, in bound order) each record a child
// span. A nil sp (the untraced and unsampled paths) costs nothing — spans
// come from the trace's pooled arena, so the zero-alloc search contract
// holds either way.
func (ix *Index) SearchIntoSpans(dst []Result, query []float64, k int, sp *trace.Span) ([]Result, Stats) {
	var stats Stats
	if k <= 0 {
		k = 1
	}
	sc := ix.scratch.Get().(*searchScratch)
	sc.qmask = featrow.Mask(sc.qmask, query)
	// A search asking for every live row visits every leaf and returns them
	// all, whatever the beam.
	beam := ix.opts.Beam
	if k >= ix.Size() {
		beam = math.MaxInt
	}
	stage := sp.Start("project")
	ix.descend(ix.root, query, beam, sc, &stats)
	stage.End()
	stage = sp.Start("scan")
	ix.boundRows(query, sc, &stats)
	stage.SetInt("leaves", int64(len(sc.leaves)))
	stage.SetInt("candidates", int64(len(sc.bounds)))
	stage.End()
	stage = sp.Start("rank")
	dst = ix.refine(dst, query, k, sc, &stats)
	stage.SetInt("exact", int64(stats.Exact))
	stage.SetInt("closed", int64(stats.Closed))
	stage.End()
	sc.leaves = sc.leaves[:0]
	sc.ends = sc.ends[:0]
	sc.bounds = sc.bounds[:0]
	ix.scratch.Put(sc)
	return dst, stats
}

// SearchBatch answers many queries concurrently, one goroutine per core,
// each pulling its own scratch from the pool. results[i] and stats[i]
// correspond to queries[i].
func (ix *Index) SearchBatch(queries [][]float64, k int) ([][]Result, []Stats) {
	results := make([][]Result, len(queries))
	stats := make([]Stats, len(queries))
	parallel(len(queries), func(i int) {
		results[i], stats[i] = ix.Search(queries[i], k)
	})
	return results, stats
}

// descend routes the query down the tree, keeping the beam best children
// at each level by distance to their centers. Reached leaves are appended
// to sc.leaves, best-routed first.
func (ix *Index) descend(n *node, query []float64, beam int, sc *searchScratch, stats *Stats) {
	if len(n.children) == 0 {
		sc.leaves = append(sc.leaves, n)
		return
	}
	p := n.reducer.ProjectInto(sc.qproj[:n.reducer.Dim()], query)
	start := len(sc.scored)
	for _, name := range n.order {
		best := math.Inf(1)
		for _, c := range n.centers[name] {
			stats.DistanceOps++
			stats.FloatOps += len(c)
			if d := mat.SqDist(p, c); d < best {
				best = d
			}
		}
		sc.scored = append(sc.scored, scoredChild{child: n.children[name], dist: best})
	}
	// Insertion sort: child counts are small, and avoiding sort.Slice keeps
	// the path allocation-free. cs stays readable even if a nested descend
	// grows sc.scored into a new backing array.
	cs := sc.scored[start:]
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].dist < cs[j-1].dist; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	for i := 0; i < min(beam, len(cs)); i++ {
		ix.descend(cs[i].child, query, beam, sc, stats)
	}
	sc.scored = sc.scored[:start]
}

// boundDims is how many leading reduced dimensions the bound pass sums for
// every row of a visited leaf. A leaf's PCA orders its dimensions by
// variance, so the leading ones carry most of the bound; the rest are added
// only for the rows whose partial bound does not already exclude them.
const boundDims = 4

// seedPool sets how many of the best-routed leaf's rows, by partial bound,
// have their bounds completed to choose the k seeds from: seedPool·k. The
// tighter the seeds' k-th distance, the more rows the partial bound drops
// before their bounds are completed. On the HTTP benchmark's corpus
// (2 048 uniform query-by-example searches in process) seedPool 1, 2, 3, 4
// and 6 touch 29.0 k, 25.1 k, 24.6 k, 24.4 k and 24.4 k float ops per
// search, pool included.
const seedPool = 4

// refineBudget caps the exact distances one search spends at refineBudget·k,
// seeds included. The bound cannot see the distance outside a reducer's
// selected coordinates, and on data where that is most of it nothing else
// keeps the refine from degenerating into a scan of every visited row: with
// no cap, TestSearchCostBelowFlat's search spends 79 k float ops against a
// limit of 53 k, and TestSearchScalesSublinearly's grows 8 k → 176 k when
// the data grows 8×. A sweep of 300 queries on multiLeafCorpus(12, 800),
// whose visited leaves cap recall@10 at 0.9833:
//
//	budget            2       3       4       6       none
//	closed            94 %    96 %    97 %    98 %    100 %
//	recall@10         0.9793  0.9813  0.9817  0.9827  0.9833
//	exact distances   11.9    12.4    12.7    13.2    34.5
//
// 4 is the smallest budget at which the HTTP benchmark's quality sample
// scores what it scores with no cap (0.9468; 0.9460 at 3), and it keeps
// both cost tests at two thirds of their limits or less (18 k float ops;
// 7 k → 16 k).
const refineBudget = 4

// The refine stops at the first row whose bound exceeds
// kth·(1+refineEps)+refineSlack, kth being the running k-th exact squared
// distance. The margins absorb rounding: a computed bound may exceed the
// exact-arithmetic one by a few ulps of the coordinates it sums, and a
// reducer's components are orthonormal only to rounding. On
// multiLeafCorpus(12, 800), 1.3 % of 1.6 M computed bounds exceed the exact
// squared distance, by at most 1.5e-15 of it. The relative term covers
// distances of any size, the absolute one a kth of zero (exact duplicates
// of the query). Both are powers of two, so a test can build
// rows that sit exactly on the margin.
const (
	refineEps   = 0x1p-30 // ≈ 9.3e-10
	refineSlack = 0x1p-40 // ≈ 9.1e-13
)

// margin is the bound past which a row cannot rank among the k best once
// kth is the k-th best exact squared distance found.
func margin(kth float64) float64 { return kth*(1+refineEps) + refineSlack }

// boundRows is the scan stage: it projects the query into every visited
// leaf's space and appends to sc.bounds every live row of the leaf, base rows
// then the overlay, with the part of its bound the leading boundDims
// dimensions give; sc.ends[i] closes leaves[i]'s rows.
func (ix *Index) boundRows(query []float64, sc *searchScratch, stats *Stats) {
	if need := len(sc.leaves) * ix.maxDim; len(sc.lproj) < need {
		sc.lproj = make([]float64, need)
	}
	for i, leaf := range sc.leaves {
		p := leaf.reducer.ProjectInto(sc.leafQuery(i, leaf, ix.maxDim), query)
		h := min(boundDims, len(p))
		start := len(sc.bounds)
		sc.bounds = ix.appendBounds(sc.bounds, p[:h], leaf.ids, leaf.lead, h, 0)
		sc.bounds = ix.appendBounds(sc.bounds, p[:h], leaf.extraIDs, leaf.extraProj, len(p), len(leaf.ids))
		sc.ends = append(sc.ends, len(sc.bounds))
		stats.FloatOps += (len(sc.bounds) - start) * h
	}
	stats.DistanceOps += len(sc.bounds)
	stats.Candidates = len(sc.bounds)
}

// appendBounds appends the partial bound of each live row of one region of a
// leaf over the leading len(p) dimensions: ids[r] is the entry of leaf row
// first+r, whose reduced feature starts at data[r*stride]. The four-wide
// case, every leaf's at the default PCADims, is unrolled; it sums in the
// loop's order, and BenchmarkSearchMultiLeaf runs in 87 µs with it against
// 105 µs without (medians of 10 alternating runs, 2-CPU box).
func (ix *Index) appendBounds(dst []bound, p []float64, ids []int32, data []float64, stride, first int) []bound {
	if len(p) == 4 {
		p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
		for r, id := range ids {
			if masked(ix.removed, id) {
				continue
			}
			x := data[r*stride : r*stride+4]
			d0, d1, d2, d3 := p0-x[0], p1-x[1], p2-x[2], p3-x[3]
			dst = append(dst, bound{lb: d0*d0 + d1*d1 + d2*d2 + d3*d3, id: id, row: int32(first + r)})
		}
		return dst
	}
	for r, id := range ids {
		if masked(ix.removed, id) {
			continue
		}
		var lb float64
		for d, v := range data[r*stride : r*stride+len(p)] {
			dv := p[d] - v
			lb += dv * dv
		}
		dst = append(dst, bound{lb: lb, id: id, row: int32(first + r)})
	}
	return dst
}

// refine is the rank stage, a multi-step k-NN over the rows boundRows found
// (Seidl & Kriegel's filter-and-refine). It seeds the top k with the exact
// distances of the k rows of least complete bound among the best-routed
// leaf's seedPool·k rows of least partial bound; drops every row whose
// partial bound passes the seeds' k-th distance and completes the bound of
// the rest; then computes exact distances in ascending (bound, id) order
// until the next bound passes the running k-th one, or refineBudget·k exact
// distances are spent. When it stops on the bound the answer is exact over
// the visited leaves — FlatSearch over their live rows, tie order and Dist
// bits included — and stats.Closed records it.
func (ix *Index) refine(dst []Result, query []float64, k int, sc *searchScratch, stats *Stats) []Result {
	top, pool, seeds := sc.top[:0], sc.pool[:0], sc.seeds[:0]
	// A seed's id is its position in sc.bounds, which within one leaf is in
	// entry-ID order, so (lb, position) ranks like (lb, id).
	for i, b := range sc.bounds[:sc.ends[0]] {
		pool = heapOffer(pool, seedPool*k, heapItem{sq: b.lb, id: int32(i)})
	}
	p0 := sc.leafQuery(0, sc.leaves[0], ix.maxDim)
	h0 := min(boundDims, len(p0))
	for _, s := range pool {
		b := sc.bounds[s.id]
		lb := b.lb + tailSq(p0, sc.leaves[0].projRow(b.row, len(p0)), h0)
		seeds = heapOffer(seeds, k, heapItem{sq: lb, id: s.id})
	}
	stats.FloatOps += len(pool) * (len(p0) - h0)
	for _, s := range seeds {
		b := &sc.bounds[s.id]
		top = ix.offerExact(top, query, sc.qmask, k, b.id)
		b.row = -1
	}
	exact := len(seeds)
	cut := margin(heapBound(top, k))
	survivors := sc.bounds[:0] // compacts sc.bounds in place
	lo := 0
	for i, leaf := range sc.leaves {
		p := sc.leafQuery(i, leaf, ix.maxDim)
		h := min(boundDims, len(p))
		for _, b := range sc.bounds[lo:sc.ends[i]] {
			if b.row < 0 || b.lb > cut {
				continue
			}
			b.lb += tailSq(p, leaf.projRow(b.row, len(p)), h)
			stats.FloatOps += len(p) - h
			if b.lb <= cut {
				survivors = append(survivors, b)
			}
		}
		lo = sc.ends[i]
	}
	for i := len(survivors)/2 - 1; i >= 0; i-- {
		siftBound(survivors, i)
	}
	closed := 1
	for ; len(survivors) > 0 && survivors[0].lb <= margin(heapBound(top, k)); survivors = popBound(survivors) {
		if exact == refineBudget*k {
			closed = 0
			break
		}
		top = ix.offerExact(top, query, sc.qmask, k, survivors[0].id)
		exact++
	}
	stats.DistanceOps += exact
	stats.FloatOps += exact * len(query)
	stats.Exact, stats.Closed = exact, closed
	sortItems(top)
	if cap(dst) < len(top) {
		dst = make([]Result, len(top))
	} else {
		dst = dst[:len(top)]
	}
	for i, it := range top {
		dst[i] = Result{Entry: ix.all[it.id], Dist: math.Sqrt(it.sq)}
	}
	sc.top, sc.pool, sc.seeds = top[:0], pool[:0], seeds[:0]
	return dst
}

// tailSq completes a partial bound: the squared distance between the query
// projection p and a row's reduced feature x over the dimensions from h on.
func tailSq(p, x []float64, h int) float64 {
	var sq float64
	for d, v := range x[h:] {
		dv := p[h+d] - v
		sq += dv * dv
	}
	return sq
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

// Leaves returns the leaf concept names, in deterministic order.
func (ix *Index) Leaves() []string {
	var out []string
	var walk func(n *node)
	walk = func(n *node) {
		if len(n.children) == 0 {
			out = append(out, n.name)
			return
		}
		for _, name := range n.order {
			walk(n.children[name])
		}
	}
	walk(ix.root)
	return out
}
