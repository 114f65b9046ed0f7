package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// TestHistogramBucketBounds pins the bucket layout: doubling bounds from 1µs.
func TestHistogramBucketBounds(t *testing.T) {
	if histBounds[0] != 1e-6 {
		t.Fatalf("first bound %g, want 1e-6", histBounds[0])
	}
	for i := 1; i < len(histBounds); i++ {
		if histBounds[i] != 2*histBounds[i-1] {
			t.Fatalf("bound %d = %g, want %g", i, histBounds[i], 2*histBounds[i-1])
		}
	}
	if got := bucketFor(0); got != 0 {
		t.Fatalf("bucketFor(0) = %d", got)
	}
	if got := bucketFor(1e-6); got != 0 {
		t.Fatalf("bucketFor(1e-6) = %d, want 0 (bounds are inclusive)", got)
	}
	if got := bucketFor(1.5e-6); got != 1 {
		t.Fatalf("bucketFor(1.5e-6) = %d, want 1", got)
	}
	if got := bucketFor(math.Inf(1)); got != histBuckets {
		t.Fatalf("bucketFor(+Inf) = %d, want overflow bucket %d", got, histBuckets)
	}
}

// TestBucketForMatchesBinarySearch cross-checks the exponent-based bucket
// index against the definitional binary search over the bounds table, probing
// every bound exactly, just above, just below, and points in between.
func TestBucketForMatchesBinarySearch(t *testing.T) {
	ref := func(v float64) int { return sort.SearchFloat64s(histBounds, v) }
	probe := func(v float64) {
		t.Helper()
		if got, want := bucketFor(v), ref(v); got != want {
			t.Fatalf("bucketFor(%g) = %d, want %d", v, got, want)
		}
	}
	for i, b := range histBounds {
		probe(b)
		probe(math.Nextafter(b, 0))
		probe(math.Nextafter(b, math.Inf(1)))
		probe(b * 1.5)
		if i > 0 {
			probe((histBounds[i-1] + b) / 2)
		}
	}
	for v := 1e-7; v < 1e5; v *= 1.37 {
		probe(v)
	}
	probe(0)
	probe(math.Inf(1))
}

// TestHistogramQuantileKnownDistribution checks the quantile math against a
// distribution placed in known buckets: 90 observations at 1µs (bucket 0)
// and 10 at 100ms (bucket le=0.131072). The p50 must report the low bucket's
// bound and the p99 the high bucket's bound (capped at the observed max).
func TestHistogramQuantileKnownDistribution(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1e-6)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.1)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if got := s.Quantile(0.50); got != 1e-6 {
		t.Fatalf("p50 = %g, want 1e-6", got)
	}
	if got := s.Quantile(0.90); got != 1e-6 {
		t.Fatalf("p90 = %g, want 1e-6 (rank 90 is the last low observation)", got)
	}
	// Rank 99 lands among the 0.1s observations; their bucket bound is
	// 0.131072 but the observed max 0.1 caps the report.
	if got := s.Quantile(0.99); got != 0.1 {
		t.Fatalf("p99 = %g, want 0.1", got)
	}
	if math.Abs(s.Sum-(90*1e-6+10*0.1)) > 1e-9 {
		t.Fatalf("sum %g", s.Sum)
	}
	if s.Max != 0.1 {
		t.Fatalf("max %g", s.Max)
	}
}

// TestHistogramQuantileUniformLadder spreads one observation per bucket over
// ten buckets and checks nearest-rank quantiles hit the expected bounds.
func TestHistogramQuantileUniformLadder(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(histBounds[i]) // exactly on each bound → bucket i
	}
	s := h.Snapshot()
	for i := 1; i <= 10; i++ {
		p := float64(i) / 10
		want := histBounds[i-1]
		if want > s.Max {
			want = s.Max
		}
		if got := s.Quantile(p); got != want {
			t.Fatalf("quantile(%.1f) = %g, want %g", p, got, want)
		}
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile %g", got)
	}
}

// TestHistogramConcurrentObserve hammers Observe from several goroutines so
// the race detector exercises the atomic paths, then checks nothing was lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w+1) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count %d, want %d", s.Count, workers*per)
	}
	if s.Max != workers*1e-6 {
		t.Fatalf("max %g", s.Max)
	}
}
