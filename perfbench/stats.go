package main

import (
	"math"
	"sort"
)

// summary is one metric's samples with the statistics every report
// prints: the median and the first and third quartiles.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Median: med, Q1: q1, Q3: q3, Samples: append([]float64(nil), xs...)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), so a spread this program
// reports is the spread a reader recomputes from the raw samples. One
// sample is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// rank is the 1-based nearest rank of the percentile given in basis
// points (5000 = p50) among n samples: the smallest rank with at least
// that share of the samples at or below it. Integer arithmetic keeps the
// sample-count cutoffs of tail exact.
func rank(bp, n int) int {
	r := (bp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile (basis points) of
// ascending-sorted s; zero for no samples.
func percentile(s []float64, bp int) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[rank(bp, len(s))-1]
}

// tailBP are the candidates for a timing's ".tail", in basis points,
// highest first.
var tailBP = []int{9999, 9990, 9900, 9000}

// tailMinBeyond is how many samples must lie beyond a percentile before
// it may be reported as the tail.
const tailMinBeyond = 10

// tail returns the highest percentile of tailBP with at least
// tailMinBeyond samples ranked beyond it, and that percentile in basis
// points. With too few samples for any of them the median stands in.
func tail(xs []float64) (value float64, bp int) {
	s := sorted(xs)
	for _, p := range tailBP {
		if len(s)-rank(p, len(s)) >= tailMinBeyond {
			return percentile(s, p), p
		}
	}
	return percentile(s, 5000), 5000
}
