package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5000, want: 99, ok: true},
		{n: 1000, want: 99, ok: true}, // exactly 10 beyond p99
		{n: 999, want: 95, ok: true},  // 9 beyond p99, 49 beyond p95
		{n: 200, want: 95, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 99, want: 90, ok: false}, // 9 beyond p90: no percentile qualifies
		{n: 0, want: 90, ok: false},
	} {
		q, ok := tailPercentile(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, q) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves only %d beyond", tc.n, q, beyond(tc.n, q))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := beyond(len(xs), 99); got != 10 {
		t.Errorf("beyond p99 of 1000 = %d, want 10", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{xs: []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, q1: 2.75, med: 5.5, q3: 8.25},
		// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
		{xs: []float64{3, 1, 5, 2, 4}, q1: 1.5, med: 3, q3: 4.5},
		// statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
		{xs: []float64{2, 1}, q1: 0.75, med: 1.5, q3: 2.25},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}
