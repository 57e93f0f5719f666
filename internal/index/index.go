// Package index implements the cluster-based hierarchical database index of
// §2 and §6.2: a tree derived from the concept hierarchy whose non-leaf
// nodes summarise their content with multiple centers (because high-level
// concepts mix several visual components, a single Gaussian cannot model
// them) and whose leaf nodes index shots with a hash table. Search descends
// only into relevant units, computes distances in reduced feature subspaces
// — every leaf ranks its own candidates in its own — and spends full-space
// distances only on the short list the leaves hand up, reproducing the
// Tc ≪ Te total-cost comparison of Eqs. (24)–(25).
//
// Storage is flat: entries are numbered at Build, the full feature of entry
// i is read through rows[i] — a view of wherever the entry's owner keeps it
// (Entry.Row), never a copy — and every leaf precomputes one projection
// matrix over its rows and one sorted table of its occupied hash cells. The
// search hot path runs on pooled per-call scratch (query projections,
// candidate lists, bounded top-k max-heaps), so steady-state SearchInto
// performs zero heap allocations.
//
// The fit is a pure function of its rows, bit for bit. Its one random step,
// k-means++ seeding, draws from the seeded source node after node in one
// fixed order; everything else — the reducers, the projections, the Lloyd
// refinements, the leaves' cell tables — depends only on a node's rows and
// runs on up to GOMAXPROCS goroutines that the build starts and waits for.
// The index Build or BuildMatrix returns is therefore the same at any
// GOMAXPROCS.
package index

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// Row, when set, is the shot's full feature (colour ++ texture) in the
	// storage its owner keeps it in, and the index reads it there instead of
	// copying the shot's two halves. It must hold the same numbers as the
	// shot and must never be written while any index reads it.
	Row []float64
}

// Options tunes index construction. Zero values become defaults.
type Options struct {
	Centers    int // centers per non-leaf node (default 3)
	SelectDims int // variance-selected coordinates (default 48)
	PCADims    int // principal components per node (default 16)
	HashDims   int // leading reduced dims hashed at leaves (default 4)
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
	if o.HashDims <= 0 {
		o.HashDims = 4
	}
	if o.HashDims > maxHashDims {
		o.HashDims = maxHashDims
	}
	if o.Beam <= 0 {
		o.Beam = 2
	}
	return o
}

// Stats counts the work a search performed, the quantities of Eqs. (24)
// and (25): distance computations per level, the float dimensions touched,
// and the size of the ranked candidate set.
type Stats struct {
	DistanceOps int // total distance computations
	FloatOps    int // Σ dims over all distance computations
	Candidates  int // entries ranked (the M_o log M_o term)
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
	// rows[i] is the full feature vector of entry i, dim wide: a view of the
	// entry's Row (or of the matrix BuildMatrix was handed), held by
	// reference, so the index keeps one slice header per entry and no copy
	// of any feature. Inserted entries append to it like all.
	rows [][]float64
	dim  int
	// colorDims is where a feature row splits into colour and texture; the
	// exact re-rank sums the two halves as ShotSqDist does.
	colorDims int

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
	// Leaf state, flat storage: ids are global entry IDs in insertion
	// order, proj row r is the reduced feature of entry ids[r], and the
	// cell table maps quantised cells to leaf-local rows. The table is in
	// CSR form: cellKeys holds the occupied cells in ascending keyCmp
	// order, and cell i owns cellRows[cellStart[i]:cellStart[i+1]]
	// (ascending rows).
	ids       []int32
	proj      *mat.Dense
	cell      []float64 // per-dim hash cell width
	cellKeys  []cellKey
	cellStart []int32
	cellRows  []int32
	// Incremental overlay: entries inserted after the fit. extraIDs extends
	// ids (leaf row len(ids)+i refers to extraIDs[i]) and extraProj holds
	// their reduced features (reducer.Dim() wide rows). Extras are not
	// hashed — they are unconditionally candidates at this leaf, which is
	// exact (never misses) and stays cheap because the staleness budget
	// bounds how many exist before a refit folds them in.
	extraIDs  []int32
	extraProj []float64
}

// rows is the leaf's total candidate row count, base plus overlay.
func (n *node) rows() int { return len(n.ids) + len(n.extraIDs) }

// idAt maps a leaf row to its global entry ID across both regions.
func (n *node) idAt(row int32) int32 {
	if int(row) < len(n.ids) {
		return n.ids[row]
	}
	return n.extraIDs[int(row)-len(n.ids)]
}

// projRow returns the leaf-space reduced feature of a leaf row.
func (n *node) projRow(row int32, dim int) []float64 {
	if int(row) < len(n.ids) {
		return n.proj.Row(int(row))
	}
	r := int(row) - len(n.ids)
	return n.extraProj[r*dim : (r+1)*dim]
}

// cellKey is a fixed-width quantised signature of the leading reduced
// dimensions; unused dimensions stay zero.
type cellKey [maxHashDims]int32

const maxHashDims = 4

// Build constructs the index from entries. Every entry must carry a
// non-empty path. An entry's Row is read in place; the entries without one
// have their shots' features copied, once, into one array the index keeps.
func Build(entries []*Entry, opts Options) (*Index, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("index: no entries")
	}
	d := len(entries[0].Shot.Color) + len(entries[0].Shot.Texture)
	for i, e := range entries {
		if n := len(e.Shot.Color) + len(e.Shot.Texture); n != d || (e.Row != nil && len(e.Row) != d) {
			return nil, fmt.Errorf("index: entry %d has %d feature dims, want %d", i, n, d)
		}
	}
	return build(entries, appendRows(nil, entries, d), d, opts)
}

// appendRows appends each entry's full feature to rows: its Row, or else a
// copy of its shot's two halves, every copy cut from one array.
func appendRows(rows [][]float64, entries []*Entry, dim int) [][]float64 {
	copied := 0
	for _, e := range entries {
		if e.Row == nil {
			copied++
		}
	}
	arena := make([]float64, copied*dim)
	rows = slices.Grow(rows, len(entries))
	for _, e := range entries {
		row := e.Row
		if row == nil {
			row = append(append(arena[:0:dim], e.Shot.Color...), e.Shot.Texture...)
			arena = arena[dim:]
		}
		rows = append(rows, row)
	}
	return rows
}

// BuildMatrix constructs the index from entries whose full features are
// laid out as rows of feats (row i belongs to entries[i], and i is the
// entry's ID); the entries' own Row fields are not read. Both the entry
// slice and the matrix are retained by the index and must never be mutated
// afterwards: a built Index is immutable, and every concurrent search reads
// entry pointers and feature rows straight out of them.
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
	first := entries[0].Shot
	if len(first.Color)+len(first.Texture) != feats.C {
		return nil, fmt.Errorf("index: feature matrix has %d columns, entry 0 has %d feature dims",
			feats.C, len(first.Color)+len(first.Texture))
	}
	return build(entries, feats.Rows(), feats.C, opts)
}

// build fits the index over entries whose features rows holds (rows[i] is
// entries[i]'s, dim wide). Both slices are retained, and so is every row
// they name: the caller must never write any of them afterwards. Appending
// to the caller's arrays past the lengths handed in is fine — the index
// never looks there. The fit only reads entries and rows, so concurrent
// builds may share them, as may searches of an older index; that is how
// classminer's Library fits over the rows its videos keep while its serving
// index reads the same rows.
func build(entries []*Entry, rows [][]float64, dim int, opts Options) (*Index, error) {
	if len(entries) > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d entries exceed the int32 ID space", len(entries))
	}
	opts = opts.withDefaults()
	ix := &Index{opts: opts, root: newNode("database"), all: entries, rows: rows, dim: dim,
		colorDims: len(entries[0].Shot.Color)}
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
		return &searchScratch{qproj: make([]float64, maxDim)}
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
// the cell table at leaves. Only k-means seeding draws random numbers, so
// only it runs one node after another, drawing from rng in the order a
// recursive fit draws (a node's children in order, each child's centres
// before anything in its subtree). Every other step is a pure function of
// its rows and runs on parallel workers, so the fit is bit-identical at any
// GOMAXPROCS. The phases:
//
//	(a) every node's reducer, in parallel;
//	(b) every child's rows projected into its parent's space, in parallel;
//	(c) every child's k-means++ seeds over (b)'s points, in pre-order;
//	(d) every child's Lloyd refinement of its seeds, and every leaf's
//	    projection and cell table, in parallel.
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
			for row, id := range fn.ids {
				r.ProjectInto(p.Row(row), ix.rows[id])
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

// fitLeaf projects the leaf's entries into one contiguous matrix and builds
// the cell table over quantised reduced signatures.
func (ix *Index) fitLeaf(n *node) {
	dims := n.reducer.Dim()
	h := ix.opts.HashDims
	if h > dims {
		h = dims
	}
	n.proj = mat.NewDense(len(n.ids), dims)
	for r, id := range n.ids {
		n.reducer.ProjectInto(n.proj.Row(r), ix.rows[id])
	}
	// Cell width per hashed dim: half the standard deviation keeps bucket
	// occupancy moderate without scattering near-identical shots.
	n.cell = make([]float64, h)
	for d := 0; d < h; d++ {
		var mean, ss float64
		for r := 0; r < n.proj.R; r++ {
			mean += n.proj.Data[r*dims+d]
		}
		mean /= float64(n.proj.R)
		for r := 0; r < n.proj.R; r++ {
			dv := n.proj.Data[r*dims+d] - mean
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(n.proj.R))
		if sd < 1e-9 {
			sd = 1e-9
		}
		n.cell[d] = sd / 2
	}
	n.buildCells()
}

// buildCells builds the leaf's cell table from proj and cell: the rows are
// sorted once by (cell key, row) and the runs of equal keys become the
// cells, so the table costs one sort and three exactly-sized slices however
// many cells the leaf occupies.
func (n *node) buildCells() {
	keys := make([]cellKey, n.proj.R)
	n.cellRows = make([]int32, n.proj.R)
	for r := range keys {
		keys[r] = n.hashKey(n.proj.Row(r))
		n.cellRows[r] = int32(r)
	}
	slices.SortFunc(n.cellRows, func(a, b int32) int {
		if c := keyCmp(keys[a], keys[b]); c != 0 {
			return c
		}
		return int(a - b)
	})
	cells := 0
	for i, r := range n.cellRows {
		if i == 0 || keys[r] != keys[n.cellRows[i-1]] {
			cells++
		}
	}
	n.cellKeys = make([]cellKey, 0, cells)
	n.cellStart = make([]int32, 0, cells+1)
	for i, r := range n.cellRows {
		if i == 0 || keys[r] != keys[n.cellRows[i-1]] {
			n.cellKeys = append(n.cellKeys, keys[r])
			n.cellStart = append(n.cellStart, int32(i))
		}
	}
	n.cellStart = append(n.cellStart, int32(len(n.cellRows)))
}

func (n *node) hashKey(p []float64) cellKey {
	var k cellKey
	for d := range n.cell {
		k[d] = int32(math.Floor(p[d] / n.cell[d]))
	}
	return k
}

// keyCmp is the lexicographic order the cell table is sorted by.
func keyCmp(a, b cellKey) int {
	for d := range a {
		if a[d] != b[d] {
			if a[d] < b[d] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// findCell returns the table index of an occupied cell, or -1.
func (n *node) findCell(key cellKey) int {
	if ci, ok := slices.BinarySearchFunc(n.cellKeys, key, keyCmp); ok {
		return ci
	}
	return -1
}

// candRef locates one candidate: its leaf-local projection row and its
// global entry ID. Candidates sit in searchScratch.cands grouped by leaf in
// visit order; ends[i] closes the group of leaves[i].
type candRef struct {
	row int32
	id  int32
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
	leaves []*node
	lproj  []float64 // query projection into leaves[i]'s space at i*maxDim
	ends   []int
	scored []scoredChild
	cands  []candRef
	heap   []heapItem // one leaf's k best in its own reduced space
	short  []heapItem // every visited leaf's k best, re-ranked exactly
	ring   [3][]int32 // cell-table indexes grouped by Chebyshev radius 0..2
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

// addCand records a candidate. removed, when non-nil, is the index's
// deletion mask — masked entries never become candidates. It runs once per
// candidate row of every visited leaf and only just fits the compiler's
// inlining budget (go build -gcflags=-m=2: cost 79 of 80); keep it there.
func (sc *searchScratch) addCand(leaf *node, row int32, removed []*maskPage) {
	id := leaf.idAt(row)
	if masked(removed, id) {
		return
	}
	sc.cands = append(sc.cands, candRef{row: row, id: id})
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
// projections), candidate gathering ("scan") and ranking ("rank" — the
// per-leaf shortlists and their exact re-rank) each record a child span. A
// nil sp (the untraced and unsampled paths) costs nothing — spans come from
// the trace's pooled arena, so the zero-alloc search contract holds either
// way.
func (ix *Index) SearchIntoSpans(dst []Result, query []float64, k int, sp *trace.Span) ([]Result, Stats) {
	var stats Stats
	if k <= 0 {
		k = 1
	}
	sc := ix.scratch.Get().(*searchScratch)
	stage := sp.Start("project")
	ix.descend(ix.root, query, sc, &stats)
	stage.End()
	// leafCandidates falls back to the whole leaf when the cell table is
	// exhausted, so sc.cands misses a live entry of a visited leaf only
	// when k is already satisfied nearer. It can be empty outright when
	// removals masked every entry of every visited leaf — rank then
	// returns no hits.
	stage = sp.Start("scan")
	if need := len(sc.leaves) * ix.maxDim; len(sc.lproj) < need {
		sc.lproj = make([]float64, need)
	}
	for i, leaf := range sc.leaves {
		p := leaf.reducer.ProjectInto(sc.leafQuery(i, leaf, ix.maxDim), query)
		ix.leafCandidates(leaf, p, k, sc)
		sc.ends = append(sc.ends, len(sc.cands))
	}
	stage.SetInt("leaves", int64(len(sc.leaves)))
	stage.SetInt("candidates", int64(len(sc.cands)))
	stage.End()
	stage = sp.Start("rank")
	dst = ix.rank(dst, query, k, sc, &stats)
	stage.End()
	sc.leaves = sc.leaves[:0]
	sc.ends = sc.ends[:0]
	sc.cands = sc.cands[:0]
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

// descend routes the query down the tree, keeping the Beam best children
// at each level by distance to their centers. Reached leaves are appended
// to sc.leaves.
func (ix *Index) descend(n *node, query []float64, sc *searchScratch, stats *Stats) {
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
	beam := ix.opts.Beam
	if beam > len(cs) {
		beam = len(cs)
	}
	for i := 0; i < beam; i++ {
		ix.descend(cs[i].child, query, sc, stats)
	}
	sc.scored = sc.scored[:start]
}

// scanCellsPerProbe decides how a leaf gathers its radius-0..2 cells. The
// three shells partition the radius-2 ball, so enumerating them issues at
// most 5^h binary-search probes of the cell table (625 at h = 4) and stops
// early in a dense leaf; one pass over the table costs a radius test per
// occupied cell whatever the density. The pass wins while the leaf has
// fewer than scanCellsPerProbe occupied cells per probe: BenchmarkLeafGather
// (h = 4, k = 10, queries drawn from the leaf's own rows) measured pass
// against probes at 3.0 against 21 µs on 630 cells, 11.4 against 11.5 µs on
// 3 900 — the crossover, 6.2 cells per probe — and 27 against 1.7 µs on
// 13 600.
const scanCellsPerProbe = 6

// leafCandidates looks up the hash cell of p, the query in the leaf's
// reduced space, and expands outward shell by shell until at least k
// candidates are found (or the ring is exhausted, in which case the whole
// leaf is the candidate set). Entries inserted after the fit are not
// hashed, so they join the candidate set unconditionally first — an
// inserted entry must be findable immediately, and the shell early-exits
// below must not preempt it.
func (ix *Index) leafCandidates(leaf *node, p []float64, k int, sc *searchScratch) {
	for r := len(leaf.ids); r < leaf.rows(); r++ {
		sc.addCand(leaf, int32(r), ix.removed)
	}
	h := len(leaf.cell)
	var base [maxHashDims]int
	for d := 0; d < h; d++ {
		base[d] = int(math.Floor(p[d] / leaf.cell[d]))
	}
	start := len(sc.cands)
	scan := len(leaf.cellKeys) < scanCellsPerProbe*pow5[h]
	if scan {
		leaf.scanCells(base[:h], &sc.ring)
	}
	enough := false
	for radius := range sc.ring {
		if !enough {
			if !scan {
				sc.ring[radius] = leaf.probeShell(sc.ring[radius], base[:h], radius)
			}
			for _, ci := range sc.ring[radius] {
				for _, row := range leaf.cellRows[leaf.cellStart[ci]:leaf.cellStart[ci+1]] {
					sc.addCand(leaf, row, ix.removed)
				}
			}
			enough = len(sc.cands)-start >= k
		}
		sc.ring[radius] = sc.ring[radius][:0]
	}
	if enough {
		return
	}
	// Cells exhausted: fall back to the whole leaf (still only the relevant
	// scene node, never the full database), replacing what the cells gave.
	sc.cands = sc.cands[:start]
	for r := 0; r < len(leaf.ids); r++ {
		sc.addCand(leaf, int32(r), ix.removed)
	}
}

// pow5 tabulates 5^h, the number of cells in the radius-2 ball that the
// three shells partition, for the supported hash widths.
var pow5 = [maxHashDims + 1]int{1, 5, 25, 125, 625}

// scanCells appends to ring[r] the table index of every occupied cell at
// Chebyshev (L∞) radius r <= 2 of base, in one pass over the sorted keys.
// Whether a cell is near is a coin toss per dimension, so the radius is
// computed without data-dependent branches; dimensions past len(base) are
// zero on both sides and drop out.
func (n *node) scanCells(base []int, ring *[3][]int32) {
	var b [maxHashDims]int
	copy(b[:], base)
	// The keys are sorted by their first dimension before any other: only
	// the run within 2 of base there can hold a near cell.
	lo, _ := slices.BinarySearchFunc(n.cellKeys, b[0]-2, func(key cellKey, first int) int {
		return cmp.Compare(int(key[0]), first)
	})
	for ci := lo; ci < len(n.cellKeys) && int(n.cellKeys[ci][0]) <= b[0]+2; ci++ {
		key := &n.cellKeys[ci]
		r := max(absDiff(key[0], b[0]), absDiff(key[1], b[1]), absDiff(key[2], b[2]), absDiff(key[3], b[3]))
		if r <= 2 {
			ring[r] = append(ring[r], int32(ci))
		}
	}
}

// absDiff is |k - b|, branch-free.
func absDiff(k int32, b int) int {
	d := int(k) - b
	sign := d >> 63
	return (d ^ sign) - sign
}

// probeShell appends to dst the table indexes of the occupied cells at
// exactly Chebyshev radius r around base (the shell max|offset| == r, not
// the whole ball), in table order: an odometer enumerates the first h-1
// offsets, and the last dimension ranges fully only when an earlier
// dimension already sits at ±r — otherwise it is pinned to ±r.
func (n *node) probeShell(dst []int32, base []int, r int) []int32 {
	h := len(base)
	if h == 0 {
		return dst
	}
	probe := func(key cellKey) {
		if ci := n.findCell(key); ci >= 0 {
			dst = append(dst, int32(ci))
		}
	}
	var key cellKey
	if r == 0 {
		for d, b := range base {
			key[d] = int32(b)
		}
		probe(key)
		return dst
	}
	var offs [maxHashDims]int
	for d := 0; d < h-1; d++ {
		offs[d] = -r
	}
	last := h - 1
	for {
		onShell := false
		for d := 0; d < last; d++ {
			key[d] = int32(base[d] + offs[d])
			if offs[d] == -r || offs[d] == r {
				onShell = true
			}
		}
		if onShell {
			for o := -r; o <= r; o++ {
				key[last] = int32(base[last] + o)
				probe(key)
			}
		} else {
			key[last] = int32(base[last] - r)
			probe(key)
			key[last] = int32(base[last] + r)
			probe(key)
		}
		d := last - 1
		for ; d >= 0; d-- {
			offs[d]++
			if offs[d] <= r {
				break
			}
			offs[d] = -r
		}
		if d < 0 {
			return dst
		}
	}
}

// rank is the To term in two steps. Each visited leaf keeps its k best
// candidates by distance in its own reduced space, read off its precomputed
// projection rows through a bounded max-heap with early-abandoning
// distances (even ranking uses discriminating features only). The leaves'
// spaces are not comparable with one another, so the shortlist — at most k
// per leaf — is then re-ranked the same way by the exact full-space
// distance, which is also the Dist every result reports.
func (ix *Index) rank(dst []Result, query []float64, k int, sc *searchScratch, stats *Stats) []Result {
	short, heap := sc.short[:0], sc.heap[:0]
	lo := 0
	for i, leaf := range sc.leaves {
		p := sc.leafQuery(i, leaf, ix.maxDim)
		dim := len(p)
		cands := sc.cands[lo:sc.ends[i]]
		lo = sc.ends[i]
		stats.DistanceOps += len(cands)
		stats.FloatOps += len(cands) * dim
		heap = heap[:0]
		for _, c := range cands {
			sq := mat.SqDistBounded(p, leaf.projRow(c.row, dim), heapBound(heap, k))
			heap = heapOffer(heap, k, heapItem{sq: sq, id: c.id})
		}
		short = append(short, heap...)
	}
	stats.Candidates = len(sc.cands)
	stats.DistanceOps += len(short)
	stats.FloatOps += len(short) * len(query)
	heap = heap[:0]
	for _, it := range short {
		row := ix.rows[it.id]
		sq := splitSqDistBounded(row[:ix.colorDims], row[ix.colorDims:], query, heapBound(heap, k))
		heap = heapOffer(heap, k, heapItem{sq: sq, id: it.id})
	}
	sortItems(heap)
	if cap(dst) < len(heap) {
		dst = make([]Result, len(heap))
	} else {
		dst = dst[:len(heap)]
	}
	for i, it := range heap {
		dst[i] = Result{Entry: ix.all[it.id], Dist: math.Sqrt(it.sq)}
	}
	sc.short, sc.heap = short[:0], heap[:0]
	return dst
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
// and a shot's (colour ++ texture) feature, computed without materialising
// the concatenated vector and abandoning once the sum exceeds bound.
func shotSqDistBounded(s *vidmodel.Shot, query []float64, bound float64) float64 {
	return splitSqDistBounded(s.Color, s.Texture, query, bound)
}

// splitSqDistBounded is shotSqDistBounded on the two halves of a feature,
// wherever they are stored: rank feeds it the index's rows, and gets bit
// for bit the distance FlatSearch gets from the shot.
func splitSqDistBounded(color, texture, query []float64, bound float64) float64 {
	nc := len(color)
	if len(query) != nc+len(texture) {
		panic(mat.ErrDimension)
	}
	sum := mat.SqDistBounded(query[:nc], color, bound)
	if sum > bound {
		return sum
	}
	for i, v := range texture {
		d := query[nc+i] - v
		sum += d * d
	}
	return sum
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
		stats.FloatOps += len(e.Shot.Color) + len(e.Shot.Texture)
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
	var top []heapItem
	if workers <= 1 {
		top = flatScanTopK(entries, 0, query, k)
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
				shards[w] = flatScanTopK(entries[lo:hi], lo, query, k)
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
func flatScanTopK(entries []*Entry, off int, query []float64, k int) []heapItem {
	heap := make([]heapItem, 0, k)
	for i, e := range entries {
		sq := shotSqDistBounded(e.Shot, query, heapBound(heap, k))
		heap = heapOffer(heap, k, heapItem{sq: sq, id: int32(off + i)})
	}
	return heap
}

// Row returns the full feature of entry id as the index reads it: a view of
// the row wherever the entry's owner keeps it, never to be written.
func (ix *Index) Row(id int) []float64 { return ix.rows[id] }

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
