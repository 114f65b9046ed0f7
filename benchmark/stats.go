package main

import (
	"math"
	"sort"
)

// median returns the middle order statistic of xs (mean of the two middle
// ones for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the exact nearest-rank order statistic at p ∈ (0,100]
// over the raw samples: the smallest sample with at least p% of the samples
// at or below it. No interpolation and no buckets, so a 10 % shift in a tail
// moves the reported value by 10 %.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// tailLadder lists the tail percentiles a sample may be summarized at, each
// with the share of samples beyond it in thousandths.
var tailLadder = []struct {
	p          float64
	beyondMill int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// supportedTail returns the highest percentile of tailLadder that has at
// least ten samples beyond it in a sample of n (0 when even p75 has fewer).
func supportedTail(n int) float64 {
	for _, t := range tailLadder {
		if n*t.beyondMill >= 10*1000 {
			return t.p
		}
	}
	return 0
}

// tailAtMost is percentile(xs, p) when the sample supports p (at least ten
// samples beyond it) and otherwise the highest supported percentile below p;
// it reports which percentile was used. With no supported tail it falls back
// to the median.
func tailAtMost(xs []float64, p float64) (value, used float64) {
	if s := supportedTail(len(xs)); s > 0 {
		used = math.Min(p, s)
		return percentile(xs, used), used
	}
	return median(xs), 50
}

// slope fits y = a + b·x by least squares and returns b. Called on
// (log n, log t) pairs it is the scaling exponent of t in n.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// ratio is a/b, 0 when b is 0 (a metric that could not be measured reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
