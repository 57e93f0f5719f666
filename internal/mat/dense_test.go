package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseRowsAndAppend(t *testing.T) {
	d := NewDense(2, 3)
	copy(d.Data, []float64{1, 2, 3, 4, 5, 6})
	if got := d.Row(1); got[0] != 4 || got[2] != 6 {
		t.Fatalf("row 1 = %v", got)
	}
	// A row view is capped at its row: appending to it copies, and never
	// writes into the next row.
	if grown := append(d.Row(0), 99); d.Data[3] != 4 || len(grown) != 4 {
		t.Fatalf("append to row 0 wrote into row 1: data %v", d.Data)
	}
	d.Row(0)[0] = 7
	if d.Data[0] != 7 {
		t.Fatal("Row must view, not copy")
	}
}

func TestSqDistBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300) // cover sub-block and multi-block lengths
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		exact := SqDist(a, b)
		if got := SqDistBounded(a, b, math.Inf(1)); math.Abs(got-exact) > 1e-12*(1+exact) {
			t.Fatalf("n=%d: unbounded = %v, want %v", n, got, exact)
		}
		// A generous bound must still give the exact value.
		if got := SqDistBounded(a, b, exact*2+1); math.Abs(got-exact) > 1e-12*(1+exact) {
			t.Fatalf("n=%d: loose bound = %v, want %v", n, got, exact)
		}
		// A tight bound may abandon, but the partial sum must exceed it.
		if got := SqDistBounded(a, b, exact/4); got < exact/4 && math.Abs(got-exact) > 1e-12 {
			t.Fatalf("n=%d: abandoned sum %v below bound %v", n, got, exact/4)
		}
	}
}
