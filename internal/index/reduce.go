package index

import (
	"fmt"
	"math"
	"sort"

	"classminer/internal/featrow"
	"classminer/internal/mat"
)

// Reducer is the per-leaf dimension-reduction stage of §6.2: only the
// discriminating features take part in distance computations, so the basic
// per-comparison cost in every leaf of the index is below the full
// 266-dimension cost Tm. It selects the highest-variance coordinates first
// (cheap feature selection) and then fits a PCA in that subspace.
type Reducer struct {
	selected []int
	// pos[j] is coordinate j's place in selected, -1 when not selected: what
	// ProjectRow maps a packed row's non-zero coordinates by.
	pos []int32
	pca *mat.PCA
	// compsT holds the PCA components transposed and contiguous —
	// compsT[j*Dim+c] = Components[c][j] — so the projections' inner loop is
	// a dense Dim-wide accumulate per selected coordinate instead of a
	// strided gather. A search projects its query through it once per leaf;
	// entries are projected only at fit and insert time.
	compsT []float64
	// off is the PCA mean projected, off[c] = Σ_j Mean[j]·Components[c][j]:
	// a projection sums a row's non-zero selected coordinates against
	// compsT and subtracts off last, so it never centres a zero.
	off []float64
}

// FitReducer fits a reducer on the rows named by ids (rows[id] for each id,
// all of one width): selectDims coordinates by variance, then pcaDims
// principal components. Dimensions are clamped to what the data supports. It
// reads rows and ids and writes neither, so any number of fits may share one
// row table concurrently.
//
// Every statistic is summed over the rows' non-zero elements alone, each
// coordinate's terms in row order: the mean as mat.Mean takes it; a
// coordinate's variance as Σ_nz (x−m)² + (n − nnz)·m², its zero elements'
// share added in one term; the selected coordinates' covariance as
// Σ_nz x·xᵀ / n − μ·μᵀ, a row adding a product for each pair of its
// non-zero selected coordinates. The components are that covariance's
// leading eigenvectors (mat.PCAFromCov).
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
	vars := make([]float64, d)
	nnz := make([]int, d)
	idx := make([]int32, 0, d)
	var vals []float64
	for _, id := range ids {
		idx, vals = rows[id].NonZeros(idx[:0])
		for t, j := range idx {
			dv := vals[t] - mean[j]
			vars[j] += dv * dv
			nnz[j]++
		}
	}
	for j, m := range mean {
		vars[j] += float64(len(ids)-nnz[j]) * (m * m)
	}
	order := make([]int, d)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return vars[order[a]] > vars[order[b]] })
	selected := append([]int(nil), order[:selectDims]...)
	sort.Ints(selected)
	pos := make([]int32, d)
	for j := range pos {
		pos[j] = -1
	}
	mu := make([]float64, selectDims)
	for k, j := range selected {
		pos[j] = int32(k)
		mu[k] = mean[j]
	}

	// Σ x·xᵀ over each row's non-zero selected coordinates, upper triangle:
	// pos keeps index order, so a row's ks ascend.
	cov := mat.NewMatrix(selectDims, selectDims)
	ks, xs := make([]int32, 0, selectDims), make([]float64, 0, selectDims)
	for _, id := range ids {
		idx, vals = rows[id].NonZeros(idx[:0])
		ks, xs = ks[:0], xs[:0]
		for t, j := range idx {
			if k := pos[j]; k >= 0 {
				ks, xs = append(ks, k), append(xs, vals[t])
			}
		}
		for a, ka := range ks {
			xa, row := xs[a], cov[ka]
			for b := a; b < len(ks); b++ {
				row[ks[b]] += xa * xs[b]
			}
		}
	}
	for a := range cov {
		for b := a; b < selectDims; b++ {
			c := cov[a][b]*inv - mu[a]*mu[b]
			cov[a][b], cov[b][a] = c, c
		}
	}
	pca, err := mat.PCAFromCov(mu, cov, pcaDims)
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
	r.off = make([]float64, k)
	for j, m := range pca.Mean {
		for c, w := range r.compsT[j*k : (j+1)*k] {
			r.off[c] += m * w
		}
	}
	return r, nil
}

// ProjectInto maps a full-dimension feature into the reduced space, writing
// into dst (length Dim): the selected coordinates whose bits are non-zero,
// in index order, summed against the components, then off subtracted. It
// performs no heap allocation; Search projects queries through pooled
// scratch buffers with it.
func (r *Reducer) ProjectInto(dst, v []float64) []float64 {
	k := len(r.pca.Components)
	if len(dst) != k {
		panic(mat.ErrDimension)
	}
	clear(dst)
	for j, src := range r.selected {
		x := v[src]
		if math.Float64bits(x) == 0 {
			continue
		}
		for c, w := range r.compsT[j*k:][:len(dst)] {
			dst[c] += x * w
		}
	}
	for c, o := range r.off {
		dst[c] -= o
	}
	return dst
}

// ProjectRow is ProjectInto on a packed row, bit for bit: it walks the
// row's non-zero elements (idx is the walk's scratch, room for the row's
// width) and sums the selected ones against the components in the same
// order, then subtracts off.
func (r *Reducer) ProjectRow(dst []float64, row featrow.Row, idx []int32) []float64 {
	k := len(r.pca.Components)
	if len(dst) != k {
		panic(mat.ErrDimension)
	}
	clear(dst)
	idx, vals := row.NonZeros(idx[:0])
	for t, j := range idx {
		p := int(r.pos[j])
		if p < 0 {
			continue
		}
		x := vals[t]
		for c, w := range r.compsT[p*k:][:len(dst)] {
			dst[c] += x * w
		}
	}
	for c, o := range r.off {
		dst[c] -= o
	}
	return dst
}

// Dim is the reduced dimensionality.
func (r *Reducer) Dim() int { return r.pca.Dim() }
