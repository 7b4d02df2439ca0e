package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples within a run: the median and
// quartiles of a repeated measurement, or a latency percentile over
// every request of a session.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median and quartiles of xs, computed like
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method) so
// that a run's record and the spread checks applied across runs use
// the same arithmetic. A single sample is its own median and
// quartiles.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{N: n, Q1: q(1), Median: q(2), Q3: q(3)}
}

// percentileLadder lists the percentiles a latency tail is reported
// at, highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest percentile of the ladder that leaves at
// least ten of n samples above it, so a reported tail rests on more
// than a handful of requests; 50 when n is below 20.
func tailPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs (the
// smallest sample with at least p% of the samples at or below it), or
// 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps float error in p/100·n (99.9/100·1000 is
	// 999.0000000000001) from moving the rank up by one.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
