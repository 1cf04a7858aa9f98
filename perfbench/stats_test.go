package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("median reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// reference the benchmark's acceptance spreads are computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.93, 1.02, 0.99, 1.10, 0.97, 1.00, 1.05, 0.95, 1.01, 0.98},
			[3]float64{0.965, 0.995, 1.0275}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{0.93, 1.02, 0.99, 1.10, 0.97, 1.00, 1.05, 0.95, 1.01, 0.98}
	want := (1.0275 - 0.965) / 0.995
	if got := spread(xs); !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	// 1000 distinct samples: p99 is the 990th value, with 10 above it.
	v, ok := percentile(seq(1000), 99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (reportable %v), want 990, true", v, ok)
	}
	// 999 samples leave only 9 beyond the p99.
	if v, ok := percentile(seq(999), 99); ok {
		t.Errorf("p99 of 1..999 = %v reported with fewer than 10 samples beyond", v)
	}
	// Ties at the percentile do not count as beyond it.
	xs := append(seq(990), make([]float64, 0, 20)...)
	for i := 0; i < 20; i++ {
		xs = append(xs, 5000)
	}
	if v, ok := percentile(xs, 99); v != 5000 || ok {
		t.Errorf("p99 with a tied tail = %v (reportable %v), want 5000, false", v, ok)
	}
	if v, ok := percentile(seq(100), 50); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v (reportable %v), want 50, true", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing reported")
	}
}
