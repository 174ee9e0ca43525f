package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of an
// ascending-sorted sample, or NaN for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return sorted[rank]
}

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{99, 95, 90}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported.
const minBeyond = 10

// beyond is the number of samples of an n-sample run that lie above its
// q-th nearest-rank percentile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q/100*float64(n)))
}

// tailPercentile applies the tail rule: the highest of p99, p95 and p90
// that leaves at least minBeyond of n samples beyond it. ok is false when
// even p90 has too few.
func tailPercentile(n int) (q float64, ok bool) {
	for _, q := range tailCandidates {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return tailCandidates[len(tailCandidates)-1], false
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (exclusive),
// the one the benchmark's run-to-run spread is judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		n := len(s)
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), median(s), cut(3)
}

// median returns the median of xs (the mean of the middle pair for even
// lengths), or NaN for an empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
