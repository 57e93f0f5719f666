package index

import (
	"math"
	"testing"

	"classminer/internal/featrow"
	"classminer/internal/feature"
)

// projectValue maps one byte to a coordinate: −0, a subnormal, a small
// multiple of an eighth, or a multiple of a large or a tiny power of ten.
func projectValue(b byte) float64 {
	k := float64(int(b&31) - 16)
	switch b >> 5 {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return k * 5e-324
	case 2:
		return k * 0x1p-1030
	case 3, 4, 5:
		return k / 8
	case 6:
		return k * 1e150
	default:
		return k * 1e-150
	}
}

// FuzzProjectRow holds ProjectRow on a packed row to ProjectInto on the
// row's dense form, bit for bit, through the reducers a fit gives. Each
// three bytes after the first set one coordinate (two bytes of position,
// one of value), later ones overwriting earlier; an odd first byte keeps
// every set coordinate off the reducer's selected ones, so that no
// selected element is non-zero. The remaining byte picks the leaf.
func FuzzProjectRow(f *testing.F) {
	ix, err := Build(corpus(120, 4), Options{})
	if err != nil {
		f.Fatal(err)
	}
	leaves := appendLeaves(nil, ix.root)
	f.Add(uint8(0), []byte{0})
	f.Add(uint8(1), []byte{0, 0, 0, 96, 0, 1, 100, 0, 2, 0, 1, 0, 4, 0, 2, 32, 0, 3, 64})
	f.Add(uint8(2), []byte{1, 0, 7, 120, 0, 9, 200, 1, 3, 255, 1, 0, 40})
	f.Add(uint8(5), []byte{2, 0, 3, 0, 0, 5, 33, 0, 11, 97, 1, 4, 230, 0, 200, 150})
	f.Fuzz(func(t *testing.T, leaf uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		r := leaves[int(leaf)%len(leaves)].reducer
		offSelected := data[0]&1 != 0
		var free []int
		for j, p := range r.pos {
			if p < 0 {
				free = append(free, j)
			}
		}
		dense := make([]float64, ix.dim)
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			j := (int(b[0])<<8 | int(b[1])) % ix.dim
			if offSelected {
				j = free[j%len(free)]
			}
			dense[j] = projectValue(b[2])
		}
		rows := make([]featrow.Row, 1)
		featrow.Pack(rows, func(int) (color, texture []float64) {
			return dense[:feature.ColorBins], dense[feature.ColorBins:]
		})
		got := r.ProjectRow(make([]float64, r.Dim()), rows[0], make([]int32, 0, ix.dim))
		want := r.ProjectInto(make([]float64, r.Dim()), dense)
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("coordinate %d: ProjectRow %v (%#x), ProjectInto %v (%#x)",
					c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
			}
		}
	})
}
