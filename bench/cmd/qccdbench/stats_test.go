package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{19, 0, false}, // no percentile above the median has ten samples beyond it
		{20, 50, true},
		{27, 62, true},
		{100, 90, true},
		{576, 98, true}, // the paper grid's rows
		{999, 98, true}, // p99 needs 1000 samples
		{1000, 99, true},
		{100000, 99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && float64(tc.n)*(1-float64(got)/100) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = p%d leaves fewer than ten samples beyond it", tc.n, got)
		}
	}
}

func TestQuantileInterpolatesTies(t *testing.T) {
	// Ten samples truncated to whole µs: 47 stands for [47, 48).
	s := []int64{45, 46, 47, 47, 47, 47, 48, 48, 50, 90}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 47.75},   // rank 5 is the fourth of four 47s
		{0.2, 47},      // rank 2 is the first 47
		{0.9, 90},      // rank 9 is the lone 90
		{0, 45},        // the smallest sample
		{1, 91},        // past the largest
		{0.35, 47.375}, // rank 3.5 inside the 47s
	} {
		if got := quantile(s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestRowMedians(t *testing.T) {
	// Row 0 is stalled in one rep of three, row 2 in two of three.
	byRow := [][]int64{{10, 900, 10}, {20, 20, 21}, {500, 30, 500}}
	meds := rowMedians(byRow)
	want := []float64{10.75, 20.75, 500.25} // quantile's tie rule, as in TestQuantileInterpolatesTies
	for i := range want {
		if math.Abs(meds[i]-want[i]) > 1e-9 {
			t.Fatalf("rowMedians = %v, want %v", meds, want)
		}
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, meds[0]},
		{0.5, meds[1]},
		{0.75, (meds[1] + meds[2]) / 2},
		{1, meds[2]},
	} {
		if got := quantileF(meds, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantileF(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantileF(nil, 0.5)) {
		t.Error("quantileF of no samples is not NaN")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(v, n=4) and statistics.median(v) in Python.
	for _, tc := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{1, 2, 3}, 1, 2, 3},
	} {
		s := summarize(tc.v)
		if math.Abs(s.Q1-tc.q1) > 1e-9 || math.Abs(s.Median-tc.m) > 1e-9 || math.Abs(s.Q3-tc.q3) > 1e-9 {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.v, s, tc.q1, tc.m, tc.q3)
		}
	}
}
