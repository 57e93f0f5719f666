package index

import (
	"math"
	"math/big"
	"math/rand"
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
// row's dense form, bit for bit, through the reducers a fit gives: every
// principal component and the dropped norm. Each three bytes after the
// first set one coordinate (two bytes of position, one of value), later
// ones overwriting earlier; an odd first byte keeps every set coordinate
// off the reducer's selected ones, so that no selected element is
// non-zero and the norm sums every one. Values from subnormals to past
// 2⁵⁰⁰ fill all three of the norm's sums. The remaining byte picks the
// leaf.
func FuzzProjectRow(f *testing.F) {
	ix, err := Build(corpus(120, 4), Options{})
	if err != nil {
		f.Fatal(err)
	}
	leaves := ix.leaves
	f.Add(uint8(0), []byte{0})
	f.Add(uint8(1), []byte{0, 0, 0, 96, 0, 1, 100, 0, 2, 0, 1, 0, 4, 0, 2, 32, 0, 3, 64})
	f.Add(uint8(2), []byte{1, 0, 7, 120, 0, 9, 200, 1, 3, 255, 1, 0, 40})
	f.Add(uint8(5), []byte{2, 0, 3, 0, 0, 5, 33, 0, 11, 97, 1, 4, 230, 0, 200, 150})
	f.Add(uint8(3), []byte{1, 0, 9, 200, 0, 30, 210, 0, 51, 40, 0, 77, 250, 0, 90, 60, 0, 140, 100, 1, 2, 220, 0, 160, 7})
	f.Add(uint8(4), []byte{0, 0, 2, 100, 0, 30, 201, 0, 60, 35, 0, 99, 240, 0, 130, 70, 0, 180, 194, 1, 0, 13})
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

// TestNormAccError holds normAcc to the bound the rounding argument beside
// margin takes: over m elements the computed norm is within (m+4)·2⁻⁵³ of
// the exact one, relatively, on vectors whose elements span subnormals to
// 2¹⁰⁰⁰ — one magnitude per vector, and all of them mixed — with the exact
// norm taken in 2 000-bit arithmetic. A norm past normCap reads normCap.
func TestNormAccError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		m := 1 + rng.Intn(266)
		span := []int{-1074, -1022, -600, -500, -60, 0, 60, 500, 600, 1000}
		lo := span[rng.Intn(len(span))]
		hi := lo
		if i%3 == 0 {
			hi = span[rng.Intn(len(span))]
		}
		var acc normAcc
		exact := new(big.Float).SetPrec(2000)
		for j := 0; j < m; j++ {
			x := math.Ldexp(rng.Float64()+0.5, min(lo, hi)+rng.Intn(abs(hi-lo)+1))
			if rng.Intn(2) == 0 {
				x = -x
			}
			acc.add(x)
			bx := new(big.Float).SetPrec(2000).SetFloat64(x)
			exact.Add(exact, bx.Mul(bx, bx))
		}
		want, _ := exact.Sqrt(exact).Float64()
		got := acc.norm()
		if want > normCap {
			if got != normCap {
				t.Fatalf("vector %d: norm %v past the cap reads %v", i, want, got)
			}
			continue
		}
		if want < 0x1p-1022 { // subnormal: an absolute 2⁻¹⁰⁷⁴
			if math.Abs(got-want) > 0x1p-1074 {
				t.Fatalf("vector %d: subnormal norm %v, exact %v", i, got, want)
			}
			continue
		}
		if eta := float64(m+4) * 0x1p-53; math.Abs(got-want) > eta*want {
			t.Fatalf("vector %d (%d elements, 2^%d..2^%d): norm %v, exact %v, relative error %v past %v",
				i, m, lo, hi, got, want, math.Abs(got-want)/want, eta)
		}
	}
}

func abs(x int) int { return max(x, -x) }
