package obs

import (
	"math"
	"sync/atomic"
)

// histBuckets is the number of finite histogram buckets. Bounds double from
// 1µs, so the last finite bound is 1e-6·2³¹ ≈ 36 minutes — wide enough for
// any latency this system produces while keeping every histogram a fixed,
// small array of atomics.
const histBuckets = 32

// histBounds holds the bucket upper bounds in seconds: bounds[i] = 1e-6·2^i.
// An observation v lands in the first bucket with v ≤ bounds[i]; values above
// the last finite bound land in the +Inf overflow bucket.
var histBounds = func() []float64 {
	b := make([]float64, histBuckets)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a log-bucketed histogram of nonnegative float64 observations
// (seconds, by convention). Observe is lock-free — a bucket increment plus a
// CAS-loop float add — so it can sit on per-result hot paths. The zero value
// is ready to use.
type Histogram struct {
	counts [histBuckets + 1]atomic.Uint64 // last slot = +Inf overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
	max    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[bucketFor(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
	maxFloat(&h.max, v)
}

// bucketFor returns the index of the first bucket whose bound is ≥ v. The
// bounds double from 1e-6, so the index is ⌈log₂(v/1e-6)⌉ read off the float
// exponent — cheaper than a binary search on the per-result hot path. The
// division and the bounds table both carry rounding error, so the guess is
// nudged until it satisfies the bucket invariant against the table itself.
func bucketFor(v float64) int {
	if v <= histBounds[0] {
		return 0
	}
	if v > histBounds[histBuckets-1] {
		return histBuckets
	}
	f, e := math.Frexp(v / 1e-6)
	i := e
	if f == 0.5 {
		i = e - 1
	}
	for i > 0 && v <= histBounds[i-1] {
		i--
	}
	for i < histBuckets-1 && v > histBounds[i] {
		i++
	}
	return i
}

// addFloat atomically adds v to the float64 stored in a's bits.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// maxFloat atomically raises the float64 stored in a's bits to at least v.
func maxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// bulkObserve folds a batch of pre-bucketed observations into the histogram:
// counts per bucket index, their total, sum, and maximum. It is the flush
// target for local accumulators that keep atomics off per-observation paths.
func (h *Histogram) bulkObserve(counts *[histBuckets + 1]uint32, n uint64, sum, max float64) {
	for i, c := range counts {
		if c > 0 {
			h.counts[i].Add(uint64(c))
		}
	}
	h.count.Add(n)
	addFloat(&h.sum, sum)
	maxFloat(&h.max, max)
}

// HistBucket is one histogram bucket in a snapshot: the count of
// observations ≤ LE that did not fit a smaller bucket (non-cumulative).
// LE = +Inf for the overflow bucket.
type HistBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram. Snapshots taken while
// observations race in may be off by in-flight observations between fields
// (count vs. sum); every individual counter is monotone across snapshots.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Max     float64      `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Empty buckets are included
// (fixed layout) so snapshots merge index-wise.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Max:     math.Float64frombits(h.max.Load()),
		Buckets: make([]HistBucket, histBuckets+1),
	}
	for i := range s.Buckets {
		le := math.Inf(1)
		if i < histBuckets {
			le = histBounds[i]
		}
		s.Buckets[i] = HistBucket{LE: le, Count: h.counts[i].Load()}
	}
	return s
}

// Quantile returns the p-quantile (0 < p ≤ 1) by nearest rank over the
// buckets: the upper bound of the bucket holding the ⌈p·count⌉-th
// observation, capped at the maximum observed value so single-bucket
// distributions report their actual extreme rather than a bound. Returns 0
// for an empty snapshot.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			if b.LE > s.Max || math.IsInf(b.LE, 1) {
				return s.Max
			}
			return b.LE
		}
	}
	return s.Max
}
