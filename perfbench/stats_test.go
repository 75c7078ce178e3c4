package main

import (
	"math"
	"testing"
)

// The expected cut points are Python's statistics.quantiles(xs, n=4)
// and statistics.median(xs), which the benchmark's spread criterion uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 12.5, 9, 11, 30}, 9.5, 11, 21.25},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, q2, q3 := quartiles(nil); q1 != 0 || q2 != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v", q1, q2, q3)
	}
}

func TestSummarySpread(t *testing.T) {
	s := summarize([]float64{10, 12.5, 9, 11, 30})
	if s.Median != 11 || s.Q1 != 9.5 || s.Q3 != 21.25 {
		t.Fatalf("summary %+v", s)
	}
	if got, want := s.spread(), (21.25-9.5)/11; math.Abs(got-want) > 1e-15 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		bp   int
		want float64
	}{{5000, 5}, {9000, 9}, {9900, 10}, {1, 1}, {10000, 10}} {
		if got := percentile(s, tc.bp); got != tc.want {
			t.Errorf("percentile(%d bp) = %v, want %v", tc.bp, got, tc.want)
		}
	}
	if percentile(nil, 5000) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

// The tail is the highest candidate percentile with at least ten samples
// ranked beyond it; the sample counts below sit on each cutoff.
func TestTailSampleCountCutoff(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		wantBP int
	}{
		{5, 5000}, {19, 5000}, {99, 5000},
		{100, 9000}, {999, 9000},
		{1000, 9900}, {9999, 9900},
		{10000, 9990}, {100000, 9999},
	} {
		v, bp := tail(ramp(tc.n))
		if bp != tc.wantBP {
			t.Errorf("n=%d: tail at %d bp, want %d", tc.n, bp, tc.wantBP)
			continue
		}
		if beyond := tc.n - int(v); bp != 5000 && beyond < tailMinBeyond {
			t.Errorf("n=%d: tail %v leaves %d samples beyond", tc.n, v, beyond)
		}
	}
}
