package index

import (
	"fmt"
	"sort"

	"classminer/internal/featrow"
	"classminer/internal/mat"
)

// Reducer is the per-node dimension-reduction stage of §6.2: only the
// discriminating features take part in distance computations, so the basic
// per-comparison cost at every level of the index is below the full
// 266-dimension cost Tm. It selects the highest-variance coordinates first
// (cheap feature selection) and then fits a PCA in that subspace.
type Reducer struct {
	selected []int
	// pos[j] is coordinate j's place in selected, -1 when not selected: what
	// ProjectRow gathers a packed row's coordinates by.
	pos []int32
	pca *mat.PCA
	// compsT holds the PCA components transposed and contiguous —
	// compsT[j*Dim+c] = Components[c][j] — so ProjectInto's inner loop is a
	// dense Dim-wide accumulate per selected coordinate instead of a
	// strided gather. A search projects its query through it once per node
	// it routes at and once per leaf it visits; entries are projected only
	// at fit and insert time.
	compsT []float64
}

// FitReducer fits a reducer on the rows named by ids (rows[id] for each id,
// all of one width): selectDims coordinates by variance, then pcaDims
// principal components. Dimensions are clamped to what the data supports. It
// reads rows and ids and writes neither, so any number of fits may share one
// row table concurrently. The rows are unpacked a few at a time into
// scratch, and every sum takes its terms in row order, so the reducer is the
// one the dense rows give, bit for bit.
func FitReducer(rows []featrow.Row, ids []int32, selectDims, pcaDims int) (*Reducer, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("index: FitReducer needs samples")
	}
	d := rows[ids[0]].Len()
	if selectDims < 1 || selectDims > d {
		selectDims = d
	}
	if pcaDims < 1 {
		pcaDims = 1
	}
	if pcaDims > selectDims {
		pcaDims = selectDims
	}
	// The mean as mat.Mean takes it: each coordinate's terms summed in row
	// order, then scaled.
	mean := make([]float64, d)
	for _, id := range ids {
		if rows[id].Len() != d {
			panic(mat.ErrDimension)
		}
		rows[id].AddTo(mean)
	}
	inv := 1 / float64(len(ids))
	for j := range mean {
		mean[j] *= inv
	}
	// Per-coordinate sums of squared deviations, four rows at a time: each
	// accumulator takes its rows' terms in row order, as mat.Mean does.
	vars := make([]float64, d)
	scratch := make([]float64, 4*d)
	x0, x1, x2, x3 := scratch[:0:d], scratch[d:d:2*d], scratch[2*d:2*d:3*d], scratch[3*d:3*d]
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		x0, x1 := rows[ids[i]].AppendTo(x0), rows[ids[i+1]].AppendTo(x1)
		x2, x3 := rows[ids[i+2]].AppendTo(x2), rows[ids[i+3]].AppendTo(x3)
		for j, m := range mean {
			d0, d1, d2, d3 := x0[j]-m, x1[j]-m, x2[j]-m, x3[j]-m
			s := vars[j]
			s += d0 * d0
			s += d1 * d1
			s += d2 * d2
			s += d3 * d3
			vars[j] = s
		}
	}
	for _, id := range ids[i:] {
		row := rows[id].AppendTo(x0)
		for j, m := range mean {
			dv := row[j] - m
			vars[j] += dv * dv
		}
	}
	idx := make([]int, d)
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool { return vars[idx[a]] > vars[idx[b]] })
	selected := append([]int(nil), idx[:selectDims]...)
	sort.Ints(selected)
	pos := make([]int32, d)
	for j := range pos {
		pos[j] = -1
	}
	for k, j := range selected {
		pos[j] = int32(k)
	}

	// Gather the selected columns into one flat buffer.
	x := make([][]float64, len(ids))
	sub := make([]float64, len(ids)*selectDims)
	for i, id := range ids {
		x[i] = sub[i*selectDims : (i+1)*selectDims : (i+1)*selectDims]
		rows[id].Select(x[i], pos)
	}
	pca, err := mat.FitPCA(x, pcaDims)
	if err != nil {
		return nil, err
	}
	r := &Reducer{selected: selected, pos: pos, pca: pca}
	k := pca.Dim()
	r.compsT = make([]float64, len(selected)*k)
	for c, axis := range pca.Components {
		for j, w := range axis {
			r.compsT[j*k+c] = w
		}
	}
	return r, nil
}

// Project maps a full-dimension feature into the reduced space.
func (r *Reducer) Project(v []float64) []float64 {
	return r.ProjectInto(make([]float64, r.Dim()), v)
}

// ProjectInto maps a full-dimension feature into the reduced space, writing
// into dst (length Dim). Variance selection and PCA centering are fused into
// one pass so the call performs no heap allocation; Search projects queries
// through pooled scratch buffers with it.
func (r *Reducer) ProjectInto(dst, v []float64) []float64 {
	k := len(r.pca.Components)
	if len(dst) != k {
		panic(mat.ErrDimension)
	}
	mean := r.pca.Mean
	for i := range dst {
		dst[i] = 0
	}
	for j, src := range r.selected {
		x := v[src] - mean[j]
		row := r.compsT[j*k : (j+1)*k]
		for c, w := range row {
			dst[c] += x * w
		}
	}
	return dst
}

// ProjectRow is ProjectInto on a packed row, bit for bit: it gathers the
// selected coordinates into sel (one slot per selected coordinate) and
// projects them in the same order.
func (r *Reducer) ProjectRow(dst []float64, row featrow.Row, sel []float64) []float64 {
	k := len(r.pca.Components)
	if len(dst) != k {
		panic(mat.ErrDimension)
	}
	sel = sel[:len(r.selected)]
	row.Select(sel, r.pos)
	mean := r.pca.Mean
	for i := range dst {
		dst[i] = 0
	}
	for j, v := range sel {
		x := v - mean[j]
		for c, w := range r.compsT[j*k : (j+1)*k] {
			dst[c] += x * w
		}
	}
	return dst
}

// Dim is the reduced dimensionality.
func (r *Reducer) Dim() int { return r.pca.Dim() }
