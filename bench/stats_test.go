package bench

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins Quantile to Python's
// statistics.quantiles(data, n=4) ("exclusive" method), the definition the
// spread bounds are checked with. Expected values were computed with
// CPython 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{7, 7, 7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if got := Quantile([]float64{4}, 0.9); got != 4 {
		t.Errorf("quantile of one value = %v, want 4", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if got := Quantile(xs, 0.9); math.Abs(got-90.9) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.9", got)
	}
	if xs[0] != 100 {
		t.Error("Quantile reordered its input")
	}
}

func TestSpread(t *testing.T) {
	if got := Spread([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("spread of a constant sample = %v", got)
	}
	// Quartiles 1.25 and 3.75 around median 2.5: IQR/median = 1.
	if got := Spread([]float64{1, 2, 3, 4}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := Spread([]float64{-1, 0, 0, 1}); !math.IsInf(got, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", got)
	}
}
