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

// FitReducer fits a reducer on the sample rows: selectDims coordinates by
// variance, then pcaDims principal components. Dimensions are clamped to
// what the data supports.
func FitReducer(x [][]float64, selectDims, pcaDims int) (*Reducer, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("index: FitReducer needs samples")
	}
	d := len(x[0])
	if selectDims < 1 || selectDims > d {
		selectDims = d
	}
	if pcaDims < 1 {
		pcaDims = 1
	}
	if pcaDims > selectDims {
		pcaDims = selectDims
	}
	mean := mat.Mean(x)
	vars := make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			dv := v - mean[j]
			vars[j] += dv * dv
		}
	}
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vars[idx[a]] > vars[idx[b]] })
	selected := append([]int(nil), idx[:selectDims]...)
	sort.Ints(selected)

	sub := make([][]float64, len(x))
	for i, row := range x {
		sub[i] = pick(row, selected)
	}
	pca, err := mat.FitPCA(sub, pcaDims)
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

func pick(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = v[j]
	}
	return out
}
