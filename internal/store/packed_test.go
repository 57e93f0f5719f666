package store

import (
	"bytes"
	"math"
	"testing"

	"classminer/internal/featrow"
)

// packedHalfLengths are the half lengths the kernels care about: none, under
// one 16-wide block, a block, a block and one, a word less one, a word, a
// word and one, and the mined 256 and 10.
var packedHalfLengths = []int{0, 1, 15, 16, 17, 63, 64, 65, 256, 10}

// fuzzValue maps one fuzz byte to a feature value: mostly +0, else a
// quartered value, -0, a subnormal, a huge magnitude or, rarely, an infinity.
func fuzzValue(b byte) float64 {
	switch b & 7 {
	case 4:
		return float64(int(b>>3)-16) / 4
	case 5:
		return math.Copysign(0, -1)
	case 6:
		return math.SmallestNonzeroFloat64 * float64(1+b>>3)
	case 7:
		return [...]float64{math.MaxFloat64, -math.MaxFloat64, 1e300, -1e-300, math.Inf(1)}[int(b>>3)%5]
	}
	return 0
}

// fuzzRow draws an n-long row from data: all +0, fully non-zero, or one
// value a byte. A zero-length half is nil or empty by nilBit.
func fuzzRow(data []byte, n int, mode byte, nilBit bool) []float64 {
	if n == 0 {
		if nilBit {
			return nil
		}
		return []float64{}
	}
	row := make([]float64, n)
	for i := range row {
		var b byte
		if len(data) > 0 {
			b = data[i%len(data)] + byte(i/len(data))
		}
		switch mode % 4 {
		case 0: // all +0
		case 1: // fully dense: no element's bits are zero
			if row[i] = fuzzValue(b | 4); math.Float64bits(row[i]) == 0 {
				row[i] = 0.25
			}
		default:
			row[i] = fuzzValue(b)
		}
	}
	return row
}

// FuzzPackedRow: a row packed as a registered shot holds it (featrow) is,
// bit for bit, the row it was packed from — unpacked, walked and summed —
// its exact distance to a query is the dense one at any bound, early
// abandon included, and its bytes are those appendRow writes for the dense
// row, which is what lets the checkpoint write a registered shot as it is.
func FuzzPackedRow(f *testing.F) {
	f.Add([]byte{8, 9, 0, 0}, 1.0)                         // 256 + 10, all +0
	f.Add([]byte{8, 9, 1, 0x24, 0x3c, 0x2d, 0x0e}, 100.0)  // 256 + 10, fully non-zero
	f.Add([]byte{8, 9, 2, 0x84, 5, 6, 0x1f, 0, 0, 4}, 0.5) // 256 + 10, mixed
	f.Add([]byte{3, 0, 0x62, 0x77, 0x2c}, math.Inf(1))     // 16 + nil
	f.Add([]byte{4, 5, 2, 0x55, 0xfe}, -1.0)               // 17 + 63
	f.Add([]byte{0, 6, 0x12, 0x64, 0xa4, 0xb5}, 0.0)       // nil + 64
	f.Fuzz(func(t *testing.T, data []byte, bound float64) {
		if len(data) < 3 {
			return
		}
		nc, nt := packedHalfLengths[int(data[0])%len(packedHalfLengths)], packedHalfLengths[int(data[1])%len(packedHalfLengths)]
		mode, data := data[2], data[3:]
		color := fuzzRow(data, nc, mode, mode&16 != 0)
		texture := fuzzRow(data, nt, mode>>2, mode&32 != 0)
		query := fuzzRow(append(data, 0x24), nc+nt, mode>>4+2, false)
		dense := append(append([]float64{}, color...), texture...)

		rows := make([]featrow.Row, 1)
		bad := featrow.Pack(rows, func(int) ([]float64, []float64) { return color, texture })
		row := rows[0]
		nonFinite := false
		for _, v := range dense {
			nonFinite = nonFinite || math.IsInf(v, 0) || math.IsNaN(v)
		}
		if (bad == 0) != nonFinite || (bad != 0 && bad != -1) {
			t.Fatalf("Pack reports row %d non-finite; the row holds a non-finite value: %v", bad, nonFinite)
		}
		if c, tx := row.Dims(); c != nc || tx != nt {
			t.Fatalf("Dims = %d, %d; want %d, %d", c, tx, nc, nt)
		}
		sameFloats := func(what string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		sameFloats("unpack(pack(row))", row.AppendTo(nil), dense)
		idx, vals := row.NonZeros(nil)
		if len(idx) != len(vals) {
			t.Fatalf("NonZeros: %d indices, %d values", len(idx), len(vals))
		}
		scattered := make([]float64, len(dense))
		for k, j := range idx {
			if k > 0 && j <= idx[k-1] {
				t.Fatalf("NonZeros: index %d after %d", j, idx[k-1])
			}
			if math.Float64bits(vals[k]) == 0 {
				t.Fatalf("NonZeros: element %d is +0", j)
			}
			scattered[j] = vals[k]
		}
		sameFloats("NonZeros", scattered, dense)
		// A sum that started at +0 holds no -0: that is what AddTo needs.
		acc, accWant := make([]float64, len(query)), make([]float64, len(query))
		for j, q := range query {
			if math.Float64bits(q) != 1<<63 {
				acc[j], accWant[j] = q, q
			}
			accWant[j] += dense[j]
		}
		row.AddTo(acc)
		sameFloats("AddTo", acc, accWant)

		qmask := featrow.Mask(nil, query)
		for _, b := range []float64{bound, math.Inf(1)} {
			got, want := row.SqDistBounded(query, qmask, b), featrow.SplitSqDistBounded(color, texture, query, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bound %v: packed distance %v (%#x), dense %v (%#x)", b,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}

		c, tx := row.Halves()
		if got, want := appendHalf(appendHalf(nil, c), tx), appendRow(appendRow(nil, color), texture); !bytes.Equal(got, want) {
			t.Fatalf("packed bytes %x, appendRow writes %x", got, want)
		}
	})
}
