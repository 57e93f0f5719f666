package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseRowsAndAppend(t *testing.T) {
	d := &Dense{}
	d.AppendRow([]float64{1, 2, 3})
	d.AppendRow([]float64{4, 5, 6})
	if d.R != 2 || d.C != 3 {
		t.Fatalf("shape = %dx%d", d.R, d.C)
	}
	if got := d.Row(1); got[0] != 4 || got[2] != 6 {
		t.Fatalf("row 1 = %v", got)
	}
	d.SetRow(0, []float64{7, 8, 9})
	if d.Data[0] != 7 {
		t.Fatal("SetRow did not write through")
	}
	rows := d.Rows()
	rows[1][0] = 40
	if d.Data[3] != 40 {
		t.Fatal("Rows must view, not copy")
	}
	if got := d.SqDistRow(0, []float64{7, 8, 9}); got != 0 {
		t.Fatalf("SqDistRow = %v", got)
	}
	if got := d.DistRow(1, []float64{40, 5, 6}); got != 0 {
		t.Fatalf("DistRow = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRow with wrong width must panic")
		}
	}()
	d.AppendRow([]float64{1})
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

func TestPCAProjectInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([][]float64, 40)
	for i := range x {
		row := make([]float64, 12)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
	}
	p, err := FitPCA(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4)
	for _, row := range x[:5] {
		want := p.Project(row)
		got := p.ProjectInto(dst, row)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("ProjectInto[%d] = %v, Project = %v", i, got[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ProjectInto with wrong dst size must panic")
		}
	}()
	p.ProjectInto(make([]float64, 3), x[0])
}
