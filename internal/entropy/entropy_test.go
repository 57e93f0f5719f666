package entropy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestThresholdSeparatesBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var values []float64
	for i := 0; i < 400; i++ {
		values = append(values, 0.1+rng.NormFloat64()*0.02) // "same unit" mode
	}
	for i := 0; i < 40; i++ {
		values = append(values, 0.8+rng.NormFloat64()*0.05) // "boundary" mode
	}
	th, err := Threshold(values)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0.2 || th >= 0.7 {
		t.Fatalf("threshold = %v, want between the two modes (0.2, 0.7)", th)
	}
}

func TestKapurRawBounded(t *testing.T) {
	values := []float64{0.1, 0.1, 0.2, 0.8, 0.9}
	th, err := Kapur(values, 32)
	if err != nil {
		t.Fatal(err)
	}
	if th < 0.1 || th > 0.9 {
		t.Fatalf("kapur threshold = %v out of sample range", th)
	}
}

func TestThresholdIgnoresNonFinite(t *testing.T) {
	values := []float64{0.1, 0.1, 0.9, 0.9, math.NaN(), math.Inf(1), math.Inf(-1)}
	th, err := Threshold(values)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0.1 || th >= 0.9 {
		t.Fatalf("threshold = %v, want strictly between modes", th)
	}
}

func TestThresholdEmpty(t *testing.T) {
	if _, err := Threshold(nil); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestThresholdConstant(t *testing.T) {
	th, err := Threshold([]float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if th != 0.5 {
		t.Fatalf("threshold = %v, want 0.5 for constant input", th)
	}
}

func TestThresholdOrFallback(t *testing.T) {
	if got := ThresholdOr(nil, 0.42); got != 0.42 {
		t.Fatalf("fallback = %v, want 0.42", got)
	}
	if got := ThresholdOr([]float64{1, 1, 1}, 0.42); got != 1 {
		t.Fatalf("got = %v, want 1", got)
	}
}

func TestThresholdBinsClamp(t *testing.T) {
	// bins < 2 must not panic.
	if _, err := ThresholdBins([]float64{0, 1, 0, 1}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}} {
		got, err := Percentile(v, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("Percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestPercentileClampsQ(t *testing.T) {
	v := []float64{1, 2, 3}
	if got, _ := Percentile(v, -1); got != 1 {
		t.Fatalf("q<0 clamp: got %v", got)
	}
	if got, _ := Percentile(v, 2); got != 3 {
		t.Fatalf("q>1 clamp: got %v", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if _, err := Percentile(nil, 0.5); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

// Property: the threshold always lies inside [min, max] of the sample.
func TestThresholdPropertyBounded(t *testing.T) {
	f := func(raw [12]float64) bool {
		values := make([]float64, len(raw))
		for i, v := range raw {
			values[i] = math.Mod(v, 1e9)
			if math.IsNaN(values[i]) {
				values[i] = 0
			}
		}
		lo, hi := values[0], values[0]
		for _, v := range values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		th, err := Threshold(values)
		if err != nil {
			return false
		}
		return th >= lo-1e-9 && th <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in q.
func TestPercentilePropertyMonotone(t *testing.T) {
	f := func(raw [9]float64, q1, q2 float64) bool {
		a, b := q1, q2
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		a -= float64(int(a))
		b -= float64(int(b))
		if a > b {
			a, b = b, a
		}
		va, err1 := Percentile(raw[:], a)
		vb, err2 := Percentile(raw[:], b)
		return err1 == nil && err2 == nil && va <= vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
