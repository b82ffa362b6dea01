package bench

import (
	"math"
	"sort"
)

// Quantile returns the p-quantile (0 < p < 1) of xs by the "exclusive"
// method of Python's statistics.quantiles: position p*(n+1) over the sorted
// sample, interpolated between its neighbours (and extrapolated from the
// outer pair when the position falls outside 1..n). Quantile(xs, 0.5) is the
// ordinary median. xs is not modified; an empty sample yields NaN.
func Quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	frac := h - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quartiles returns the first quartile, median and third quartile of xs, as
// statistics.quantiles(xs, n=4) gives them.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	return Quantile(xs, 0.25), Quantile(xs, 0.5), Quantile(xs, 0.75)
}

// Spread is the interquartile range of xs as a share of its median: the
// run-to-run noise figure the regression bounds are set against. It is 0
// for a constant sample and +Inf when the median is 0 but the sample is not.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	iqr := q3 - q1
	if iqr == 0 {
		return 0
	}
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs(iqr / q2)
}
