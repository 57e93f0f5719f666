package mat

// Dense is a row-major matrix backed by one contiguous allocation. The
// hierarchical index stores per-leaf feature and projection matrices this
// way so the search hot path walks cache-friendly memory and indexes rows
// by integer instead of chasing per-entry map lookups.
type Dense struct {
	R, C int
	Data []float64 // len R*C, row i at Data[i*C : (i+1)*C]
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// Row returns a view (not a copy) of row i.
func (d *Dense) Row(i int) []float64 {
	return d.Data[i*d.C : (i+1)*d.C : (i+1)*d.C]
}

// SqDistBounded returns the squared Euclidean distance between a and b,
// abandoning early once the running sum exceeds bound: the returned value is
// then some partial sum > bound, still correct for "is the true distance
// < bound" tests, which is all a top-k scan needs. The bound is checked once
// per 16-element block so the inner loop stays tight.
func SqDistBounded(a, b []float64, bound float64) float64 {
	if len(a) != len(b) {
		panic(ErrDimension)
	}
	var s float64
	i := 0
	for ; i+16 <= len(a); i += 16 {
		var blk float64
		for j := i; j < i+16; j++ {
			d := a[j] - b[j]
			blk += d * d
		}
		s += blk
		if s > bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
