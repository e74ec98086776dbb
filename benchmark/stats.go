package main

import (
	"math"
	"sort"
)

// Sample arithmetic shared by the workloads and by -compare. Quartiles follow
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), because
// that is what the driver computes when it judges a metric's spread.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for an
// even count); NaN for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest value with at least p% of the sample at or below it.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// quartiles returns Q1 and Q3 exactly as statistics.quantiles(xs, n=4) does:
// position j*(n+1)/4 in the sorted sample, linearly interpolated between the
// neighbouring values. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	at := func(j int) float64 {
		pos := j * (n + 1)
		idx := min(max(pos/4, 1), n-1)
		rem := pos - idx*4 // outside [0,4] when clamped: Python extrapolates too
		return (s[idx-1]*float64(4-rem) + s[idx]*float64(rem)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure a bound is compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// speedIndex is how fast the box ran during one run, relative to the
// reference: a fixed native yardstick kernel is interleaved with the run's
// operations, and the index is its reference time over the median it took.
// The reference box's memory system swings by a factor of two over an hour
// and by tens of percent within a minute (a plain triad loop over 64 MiB
// takes anywhere from 7.5 to 17 ms a pass), which no bound on a raw timing
// could absorb. So every time the contract gates is reported at reference
// speed — raw × index — and the raw values stay in the record as detail
// metrics. An index of 1 is the quiet reference box; 0.5, the box at half
// speed. The yardsticks live in internal/baselines/native, which engine
// changes must leave alone.
func speedIndex(refMS float64, yardstickMS []float64) float64 {
	return refMS / median(yardstickMS)
}

// pairRatios divides sample by sample: a[i] and b[i] were taken back to back,
// so a burst of interference lands on both and cancels in their ratio.
func pairRatios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// geomean returns the geometric mean of positive values.
func geomean(xs ...float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// worseBy reports by what share of base the value cur is worse, given the
// metric's direction: positive means worse, negative better.
func worseBy(base, cur float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return (cur - base) / math.Abs(base)
	}
	return (base - cur) / math.Abs(base)
}
