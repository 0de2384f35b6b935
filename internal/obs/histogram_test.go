package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketMapping(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 100, 1000, 1 << 20, 1<<62 + 12345} {
		i := histBucketOf(v)
		upper := HistBucketUpper(i)
		if v > upper {
			t.Errorf("value %d above its bucket %d upper bound %d", v, i, upper)
		}
		if i > 0 {
			lower := HistBucketUpper(i-1) + 1
			if v < lower {
				t.Errorf("value %d below its bucket %d lower bound %d", v, i, lower)
			}
		}
	}
	if got := histBucketOf(-5); got != 0 {
		t.Errorf("negative value bucket = %d, want 0 (clamped)", got)
	}
	// Buckets must be monotone: upper bounds strictly increase.
	for i := 1; i < numHistBuckets; i++ {
		if HistBucketUpper(i) <= HistBucketUpper(i-1) {
			t.Fatalf("bucket bounds not monotone at %d: %d <= %d",
				i, HistBucketUpper(i), HistBucketUpper(i-1))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// Uniform 1..1000: p50 ≈ 500, p99 ≈ 990, within the ≤25% relative
	// error of the quarter-octave buckets.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Sum != 1000*1001/2 {
		t.Fatalf("sum = %d, want %d", s.Sum, 1000*1001/2)
	}
	check := func(q float64, want int64) {
		got := s.Quantile(q)
		if got < want || float64(got) > 1.30*float64(want) {
			t.Errorf("q%.2f = %d, want within [%d, 1.3*%d]", q, got, want, want)
		}
	}
	check(0.50, 500)
	check(0.90, 900)
	check(0.99, 990)
	if max := s.Max(); max < 1000 || max > 1280 {
		t.Errorf("max = %d, want ≥1000 within bucket error", max)
	}
	if s.Quantile(1.0) < s.Quantile(0.5) {
		t.Error("quantiles not monotone")
	}
}

func TestHistogramMergeAndCumulative(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10)
		h.Observe(100000)
	}
	s := h.Snapshot()
	if s.Count != 200 {
		t.Fatalf("count = %d, want 200", s.Count)
	}
	if got := s.CumulativeLE(1000); got != 100 {
		t.Errorf("cumulative ≤1000 = %d, want 100 (only the fast half)", got)
	}
	if got := s.CumulativeLE(1 << 40); got != 200 {
		t.Errorf("cumulative ≤2^40 = %d, want 200", got)
	}
	if got := s.Quantile(0.25); got > 1000 {
		t.Errorf("p25 = %d, want in the fast mode", got)
	}
	if got := s.Quantile(0.75); got < 100000 {
		t.Errorf("p75 = %d, want in the slow mode", got)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var h *Histogram
	h.Observe(42) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Max() != 0 {
		t.Errorf("nil histogram snapshot not empty: %+v", s)
	}
	var empty Histogram
	if got := empty.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

// TestHistogramObserveAllocationFree is the AllocsPerRun lock-in the
// ISSUE asks for: both the live and the nil (recorder-off) Observe
// paths must allocate nothing — histograms sit on the per-request hot
// path of the serving layer.
func TestHistogramObserveAllocationFree(t *testing.T) {
	var h Histogram
	var off *Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		off.Observe(12345)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", allocs)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race via make test. Counts must be exact (atomics, not
// racy read-modify-write).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(rng.Int63n(int64(time.Second)))
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}
