package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets: the le convention (v <= bound) routes values to
// the right buckets, including bound-equal values and the overflow.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // bucket 0
	h.Observe(0.001)  // bucket 0 (le is inclusive)
	h.Observe(0.002)  // bucket 1
	h.Observe(0.1)    // bucket 2
	h.Observe(5)      // overflow

	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Errorf("count %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-5.1035) > 1e-9 {
		t.Errorf("sum %v, want 5.1035", s.Sum)
	}
}

// TestHistogramNil: a nil histogram swallows observations, so optional
// wiring (wal.Options without metrics) needs no branches.
func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || len(s.Counts) != 0 {
		t.Fatalf("nil snapshot %+v", s)
	}
}

// TestHistogramConcurrent: parallel observers lose nothing.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefDurationBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) * 0.0002)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count %d, want %d", s.Count, workers*per)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d", total, s.Count)
	}
	wantSum := float64(workers/4) * per * (0 + 0.0002 + 0.0004 + 0.0006)
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Errorf("sum %v, want %v", s.Sum, wantSum)
	}
}

// TestHistogramBadBounds: unordered bounds are a programmer error.
func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unordered bounds")
		}
	}()
	NewHistogram([]float64{1, 1})
}
