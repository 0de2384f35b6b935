package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free latency histogram over non-negative int64
// values (conventionally nanoseconds) with fixed log-scale buckets:
// values 0–3 get exact buckets, everything above lands in one of four
// sub-buckets per power of two (≤ 25% relative error), which is plenty
// for latency percentiles while keeping Observe three atomic adds and
// zero allocations. The PSPACE-hard checks this service runs have
// latency distributions spanning six orders of magnitude — a mean is
// meaningless there; the log-scale buckets keep resolution proportional
// everywhere on that range.
//
// The zero value is ready to use. A nil *Histogram is the disabled
// histogram: Observe is a nil check and nothing more (asserted by
// AllocsPerRun in the test suite, like the rest of this package).
// Snapshots are mergeable, so per-worker histograms can be combined
// into service-wide ones.
type Histogram struct {
	counts [numHistBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
}

// numHistBuckets covers the full int64 range: buckets 0..3 are exact,
// then 4 sub-buckets per power of two up to 2^63.
const numHistBuckets = 4*(63-2) + 4

// histBucketOf maps a value to its bucket index. Negative values clamp
// to bucket 0 (durations are never negative; clamping beats panicking
// on a clock anomaly).
func histBucketOf(v int64) int {
	if v < 4 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	e := bits.Len64(u) // ≥ 3
	sub := (u >> (e - 3)) & 3
	return 4*(e-2) + int(sub)
}

// HistBucketUpper returns the inclusive upper bound of bucket i, the
// value reported when a quantile falls inside it.
func HistBucketUpper(i int) int64 {
	if i < 4 {
		return int64(i)
	}
	e := i/4 + 2
	sub := i % 4
	return int64((uint64(4+sub+1))<<(e-3) - 1)
}

// Observe records one value. Safe for concurrent use; allocation-free;
// no-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[histBucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram, safe to
// read, merge, and summarize without touching the live counters.
type HistogramSnapshot struct {
	Count  uint64
	Sum    int64
	Counts [numHistBuckets]uint64
}

// Snapshot copies the current counts. Concurrent Observes may land
// between the bucket reads — each bucket is individually exact and the
// snapshot is at worst a few observations behind, which is the usual
// contract for scrape-style metrics. A nil histogram snapshots empty.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Quantile returns an upper estimate of the q-quantile (0 ≤ q ≤ 1): the
// upper bound of the bucket holding the rank-⌈q·count⌉ observation.
// Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	total := uint64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen > rank {
			return HistBucketUpper(i)
		}
	}
	return HistBucketUpper(numHistBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket, 0 when
// empty.
func (s HistogramSnapshot) Max() int64 {
	for i := numHistBuckets - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			return HistBucketUpper(i)
		}
	}
	return 0
}

// CumulativeLE returns how many observations are ≤ bound, for rendering
// Prometheus-style cumulative buckets at arbitrary boundaries.
func (s HistogramSnapshot) CumulativeLE(bound int64) uint64 {
	var n uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if HistBucketUpper(i) <= bound {
			n += c
		}
	}
	return n
}
