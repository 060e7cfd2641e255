package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefDurationBuckets are the default bucket upper bounds, in seconds, for
// duration histograms (WAL fsync, per-stage query time): 100µs to 2.5s in
// a 1-2.5-5 ladder. Everything slower lands in the +Inf bucket.
var DefDurationBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5,
}

// Histogram counts observations into fixed buckets, Prometheus-style:
// bucket i holds values v <= Bounds[i] (the le convention), with one
// overflow bucket past the last bound. Observations are lock-free atomics,
// so hot paths (a WAL fsync per insert, a pair of observations per query)
// never contend. A nil *Histogram ignores observations, mirroring Span's
// nil contract.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last = overflow (+Inf)
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given strictly ascending
// upper bounds. It panics on unordered bounds — a programmer error.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bounds[i]
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a consistent-enough copy for rendering: Counts are
// per-bucket (not cumulative), Count is their total. Under concurrent
// observation Sum may trail the counts by in-flight observations; renders
// derive totals from Counts so the exposed document stays self-consistent.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is the +Inf bucket
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the current state. Safe on nil (zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	out := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		out.Counts[i] = c
		out.Count += c
	}
	return out
}
