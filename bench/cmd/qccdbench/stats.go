package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of integer samples that
// were truncated to whole units, such as the daemon's elapsed_us. Each
// sample v stands for a true value in [v, v+1), so the quantile is
// interpolated inside the run of tied values (the grouped-data median
// rule). That keeps sub-unit resolution when most samples share a few
// values, as the disk-tier reads of about 50 µs do. sorted must be in
// ascending order; an empty slice yields NaN.
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := q * float64(n)
	i := int(rank)
	if i >= n {
		return float64(sorted[n-1]) + 1
	}
	v := sorted[i]
	lo := sort.Search(n, func(k int) bool { return sorted[k] >= v })
	hi := sort.Search(n, func(k int) bool { return sorted[k] > v })
	return float64(v) + (rank-float64(lo))/float64(hi-lo)
}

// rowMedians returns, in ascending order, each row position's median over
// the run's reps: byRow[i] holds position i's elapsed_us from every rep.
// A stall that hits a different row in each rep moves no position's
// median; a row that is slow in most reps moves its own.
func rowMedians(byRow [][]int64) []float64 {
	meds := make([]float64, len(byRow))
	for i, xs := range byRow {
		meds[i] = quantile(sortedCopy(xs), 0.5)
	}
	sort.Float64s(meds)
	return meds
}

// quantileF returns the q-quantile (0 <= q <= 1) of sorted samples,
// interpolating linearly between neighbouring ones. An empty slice yields
// NaN.
func quantileF(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := q * float64(n-1)
	i := min(int(h), n-1)
	if i == n-1 {
		return sorted[i]
	}
	return sorted[i] + (h-float64(i))*(sorted[i+1]-sorted[i])
}

// tailPercentile is the highest whole percentile, capped at 99, that has
// at least ten of n samples beyond it. ok is false below 20 samples, where
// no percentile above the median qualifies.
func tailPercentile(n int) (p int, ok bool) {
	if n < 20 {
		return 0, false
	}
	p = int(math.Floor(100 - 1000/float64(n)))
	if p > 99 {
		p = 99
	}
	return p, true
}

// summary is the median and quartiles of a metric's per-rep values.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles of values with the formula
// of Python's statistics.quantiles(values, n=4) (its default exclusive
// method), so a run record reads the same as a spread check made on it.
func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := min(max(int(h), 1), n-1)
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return summary{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), N: n}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
