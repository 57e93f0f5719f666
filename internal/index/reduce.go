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
	var top float64
	for a := range cov {
		for b := a; b < selectDims; b++ {
			c := cov[a][b]*inv - mu[a]*mu[b]
			cov[a][b], cov[b][a] = c, c
			top = max(top, math.Abs(c))
		}
	}
	// The eigensolver squares and multiplies entries: a covariance whose
	// entries pass 2⁵⁰⁰ (coordinates near 1e150) would overflow it into NaN
	// components, and one below 2⁻⁵⁰⁰ would lose its bits to underflow.
	// Such a covariance is scaled by a power of two, which is exact and
	// leaves the eigenvectors as they are.
	if top > 0x1p500 || (top > 0 && top < 0x1p-500) {
		_, exp := math.Frexp(top)
		for _, row := range cov {
			for b := range row {
				row[b] = math.Ldexp(row[b], -exp)
			}
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
// in index order, summed against the components, then off subtracted; and
// last the dropped norm, the Euclidean norm of every coordinate the reducer
// does not select, accumulated in index order (normAcc). It performs no
// heap allocation; Search projects a query into a leaf with it, into pooled
// scratch, once the leaf's dropped-norm bound no longer excludes it.
func (r *Reducer) ProjectInto(dst, v []float64) []float64 {
	k := len(r.pca.Components)
	if len(dst) != k+1 {
		panic(mat.ErrDimension)
	}
	clear(dst)
	var acc normAcc
	for j, x := range v {
		if math.Float64bits(x) == 0 {
			continue
		}
		p := int(r.pos[j])
		if p < 0 {
			acc.add(x)
			continue
		}
		for c, w := range r.compsT[p*k:][:k] {
			dst[c] += x * w
		}
	}
	for c, o := range r.off {
		dst[c] -= o
	}
	dst[k] = acc.norm()
	return dst
}

// ProjectRow is ProjectInto on a packed row, bit for bit: it walks the
// row's non-zero elements (idx is the walk's scratch, room for the row's
// width), sums the selected ones against the components and the dropped
// ones into the norm in the same order, then subtracts off.
func (r *Reducer) ProjectRow(dst []float64, row featrow.Row, idx []int32) []float64 {
	k := len(r.pca.Components)
	if len(dst) != k+1 {
		panic(mat.ErrDimension)
	}
	clear(dst)
	var acc normAcc
	idx, vals := row.NonZeros(idx[:0])
	for t, j := range idx {
		x := vals[t]
		p := int(r.pos[j])
		if p < 0 {
			acc.add(x)
			continue
		}
		for c, w := range r.compsT[p*k:][:k] {
			dst[c] += x * w
		}
	}
	for c, o := range r.off {
		dst[c] -= o
	}
	dst[k] = acc.norm()
	return dst
}

// Dim is the reduced dimensionality: the principal components, then the
// dropped norm.
func (r *Reducer) Dim() int { return r.pca.Dim() + 1 }

// normAcc accumulates a Euclidean norm that neither overflows nor
// underflows, as BLAS dnrm2 does since LAPACK 3.10 (Blue's algorithm;
// Anderson, "Algorithm 978: Safe scaling in the Level 1 BLAS", 2017). Each
// element's square goes into one of three sums by its magnitude: |x| > 2⁵⁰⁰
// as (x·2⁻⁶⁰⁰)², |x| < 2⁻⁵⁰⁰ as (x·2⁶⁰⁰)², and x² otherwise. The scalings
// are powers of two, so they are exact (x·2⁶⁰⁰ is normal even for a
// subnormal x), and every non-zero square lands in [2⁻⁹⁴⁸, 2⁸⁴⁸], so each
// square and each addition is rounded relatively. norm combines the sums;
// the rounding argument beside margin bounds its error, and
// TestNormAccError holds it to that bound.
type normAcc [3]float64 // small, mid, big

const (
	normSmall = 0x1p-500
	normBig   = 0x1p500
	// normCap is the largest norm reported: a norm of an overflowing
	// feature is capped, which keeps the sum of two norms finite, and
	// min(·, normCap) moves two norms no further apart.
	normCap = 0x1p1021
)

// normTerm is which sum x's square goes into and the square itself.
func normTerm(x float64) (slot int, sq float64) {
	switch a := math.Abs(x); {
	case a > normBig:
		a *= 0x1p-600
		return 2, a * a
	case a < normSmall:
		a *= 0x1p600
		return 0, a * a
	default:
		return 1, a * a
	}
}

func (acc *normAcc) add(x float64) {
	slot, sq := normTerm(x)
	acc[slot] += sq
}

// norm is the accumulated norm, capped at normCap. The largest non-zero
// sum takes the next one scaled to it, by 2⁻⁶⁰⁰ twice (2⁻¹²⁰⁰ is not a
// float64): what that rounds away, or underflows, is below 2⁻⁷⁴ of the
// larger sum. The small sum, scaled to the big one's, would be below
// 2⁻¹⁹⁰⁰ of it, and is left out.
func (acc *normAcc) norm() float64 {
	var e float64
	switch {
	case acc[2] > 0:
		e = math.Sqrt(acc[2]+acc[1]*0x1p-600*0x1p-600) * 0x1p600
	case acc[1] > 0:
		e = math.Sqrt(acc[1] + acc[0]*0x1p-600*0x1p-600)
	default:
		e = math.Sqrt(acc[0]) * 0x1p-600
	}
	return min(e, normCap)
}
