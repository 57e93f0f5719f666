package index

import (
	"fmt"
	"sort"

	"classminer/internal/mat"
)

// Reducer is the per-node dimension-reduction stage of §6.2: only the
// discriminating features take part in distance computations, so the basic
// per-comparison cost at every level of the index is below the full
// 266-dimension cost Tm. It selects the highest-variance coordinates first
// (cheap feature selection) and then fits a PCA in that subspace.
type Reducer struct {
	selected []int
	pca      *mat.PCA
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
// row table concurrently.
func FitReducer(rows [][]float64, ids []int32, selectDims, pcaDims int) (*Reducer, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("index: FitReducer needs samples")
	}
	d := len(rows[ids[0]])
	if selectDims < 1 || selectDims > d {
		selectDims = d
	}
	if pcaDims < 1 {
		pcaDims = 1
	}
	if pcaDims > selectDims {
		pcaDims = selectDims
	}
	x := make([][]float64, len(ids))
	for i, id := range ids {
		x[i] = rows[id]
	}
	mean := mat.Mean(x)
	// Per-coordinate sums of squared deviations, four rows at a time: each
	// accumulator takes its rows' terms in row order, as mat.Mean does.
	vars := make([]float64, d)
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i][:d], x[i+1][:d], x[i+2][:d], x[i+3][:d]
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
	for _, row := range x[i:] {
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

	// Gather the selected columns into one flat buffer; x's row headers are
	// re-pointed at it, since the full rows are not read again.
	sub := make([]float64, len(x)*selectDims)
	for i, row := range x {
		out := sub[i*selectDims : (i+1)*selectDims : (i+1)*selectDims]
		for k, j := range selected {
			out[k] = row[j]
		}
		x[i] = out
	}
	pca, err := mat.FitPCA(x, pcaDims)
	if err != nil {
		return nil, err
	}
	r := &Reducer{selected: selected, pca: pca}
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

// Dim is the reduced dimensionality.
func (r *Reducer) Dim() int { return r.pca.Dim() }
