package obs

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is an in-process flight recorder: a fixed-size ring of
// completed request traces with tail-based retention. Every request
// is offered on completion; the recorder always keeps errored requests
// and requests slower than an adaptive threshold (a rolling latency
// quantile), and reservoir-samples a small baseline of normal requests
// so slow traces have something to diff against. Everything else is
// dropped before its span tree is ever snapshotted — the drop path is a
// few atomics and allocates nothing.
//
// Retention classes are strictly ordered: a baseline trace never evicts
// an error or slow trace, and an incoming error/slow trace evicts the
// oldest baseline anywhere in the ring before it recycles one of its
// own kind. Errored and over-threshold traces are therefore never lost
// while a baseline sample survives. The retained entries sit in one slice
// under one mutex, taken only by a trace that is kept and by readers.
//
// Methods are safe for concurrent use and safe on a nil *Recorder
// (disabled: Offer drops everything, List/Get find nothing), mirroring
// the package's Span contract.
type Recorder struct {
	capacity int
	baseCap  int // reservoir target for baseline traces
	floorNS  int64

	recent    [recentDurations]atomic.Int64 // the last offered durations, ns, feeding the threshold
	threshold atomic.Int64                  // cached p99, ns; 0 until the first recompute, then every recalcEvery offers
	offers    atomic.Uint64
	dropped   atomic.Uint64
	baseSeen  atomic.Uint64 // normal (non-tail) requests seen, for the reservoir
	rng       atomic.Uint64 // xorshift state for reservoir admission
	seq       atomic.Uint64 // insertion order, for oldest-first eviction

	mu      sync.Mutex
	entries []*RetainedTrace // at most capacity
}

// The slow threshold is the slowTail-th largest of the last
// recentDurations offers — their 99th percentile.
const (
	recentDurations = 1024
	slowTail        = recentDurations/100 + 1
)

// recalcEvery is how many offers share one cached threshold before it is
// recomputed from the recent durations.
const recalcEvery = 64

// TraceClass says why a trace was retained.
type TraceClass string

const (
	TraceError    TraceClass = "error"    // request failed (5xx); always kept
	TraceSlow     TraceClass = "slow"     // duration >= adaptive threshold
	TraceBaseline TraceClass = "baseline" // reservoir-sampled normal request
)

// RetainedTrace is one request the recorder kept. Entries are immutable
// once inserted; Offer, List and Get hand out shared pointers.
type RetainedTrace struct {
	RequestID   string       `json:"request_id"`
	TraceID     string       `json:"trace_id,omitempty"` // hex W3C trace id
	Endpoint    string       `json:"endpoint"`
	Status      int          `json:"status"`
	Class       TraceClass   `json:"class"`
	Degraded    bool         `json:"degraded,omitempty"`
	Start       time.Time    `json:"start"`
	DurationUS  int64        `json:"dur_us"`
	ThresholdUS int64        `json:"threshold_us"` // the slow threshold when this trace completed
	Trace       SpanSnapshot `json:"trace"`
	Explain     any          `json:"explain,omitempty"` // per-query analysis, when the server had one

	seq uint64
}

// CompletedRequest describes one finished request offered to the
// recorder. Root is snapshotted only if the trace is retained.
type CompletedRequest struct {
	RequestID string
	TraceID   string // hex W3C trace id of Root's trace
	Endpoint  string
	Status    int
	Error     bool // terminal server failure; always retained
	Degraded  bool // completed inside a degraded (read-only) window
	Start     time.Time
	Duration  time.Duration
	Root      *Span
	Explain   any
}

// RecorderConfig sizes a Recorder. Zero values take defaults.
type RecorderConfig struct {
	Capacity int           // total retained traces (default 256)
	Baseline int           // reservoir target for normal requests (default Capacity/8, min 1)
	MinSlow  time.Duration // threshold floor while traffic is sparse or fast (default 1ms)
}

// NewRecorder returns a recorder with cfg's sizing.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.Baseline <= 0 {
		cfg.Baseline = cfg.Capacity / 8
	}
	if cfg.Baseline < 1 {
		cfg.Baseline = 1
	}
	if cfg.Baseline > cfg.Capacity {
		cfg.Baseline = cfg.Capacity
	}
	if cfg.MinSlow <= 0 {
		cfg.MinSlow = time.Millisecond
	}
	r := &Recorder{
		capacity: cfg.Capacity,
		baseCap:  cfg.Baseline,
		floorNS:  cfg.MinSlow.Nanoseconds(),
	}
	r.rng.Store(0x9e3779b97f4a7c15) // fixed seed: the reservoir needs spread, not secrecy
	return r
}

// Offer presents a completed request. It returns the retained entry, or
// nil when the trace was dropped — then req.Root has not been touched and
// nothing was allocated. Callers react to the entry's class: the server
// logs a request retained as an error or slow trace at Warn, with the
// entry's class and threshold, and a baseline sample like any request.
func (r *Recorder) Offer(req CompletedRequest) *RetainedTrace {
	if r == nil {
		return nil
	}
	n := r.offers.Add(1)
	r.recent[(n-1)%recentDurations].Store(req.Duration.Nanoseconds())
	if n%recalcEvery == 0 {
		r.recalcThreshold(n)
	}
	thr := r.threshold.Load()

	var class TraceClass
	switch {
	case req.Error:
		class = TraceError
	case thr > 0 && req.Duration.Nanoseconds() >= thr:
		class = TraceSlow
	default:
		class = TraceBaseline
		// Reservoir admission (algorithm R) before paying for a snapshot:
		// the k-th baseline of n seen is kept with probability k/n, so the
		// survivors approximate a uniform sample of normal traffic.
		seen := r.baseSeen.Add(1)
		if seen > uint64(r.baseCap) && r.rand(seen) >= uint64(r.baseCap) {
			r.dropped.Add(1)
			return nil
		}
	}

	ent := &RetainedTrace{
		RequestID:   req.RequestID,
		TraceID:     req.TraceID,
		Endpoint:    req.Endpoint,
		Status:      req.Status,
		Class:       class,
		Degraded:    req.Degraded,
		Start:       req.Start,
		DurationUS:  req.Duration.Microseconds(),
		ThresholdUS: thr / 1e3,
		Trace:       req.Root.Snapshot(),
		Explain:     req.Explain,
		seq:         r.seq.Add(1),
	}
	if !r.insert(ent) {
		r.dropped.Add(1)
		return nil
	}
	return ent
}

// insert adds a retained trace to the ring. Order of preference: a free
// slot, the oldest baseline, and for an error or slow trace, when the ring
// is wall-to-wall tail traces, the oldest entry of any class. A baseline
// never displaces a tail trace: it is refused instead.
func (r *Recorder) insert(ent *RetainedTrace) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) < r.capacity {
		r.entries = append(r.entries, ent)
		return true
	}
	i := oldestOf(r.entries, true)
	if i < 0 && ent.Class != TraceBaseline {
		i = oldestOf(r.entries, false)
	}
	if i < 0 {
		return false
	}
	r.entries[i] = ent
	return true
}

// oldestOf returns the index of the oldest entry (lowest seq), optionally
// restricted to baselines; -1 when no candidate exists.
func oldestOf(entries []*RetainedTrace, baselineOnly bool) int {
	best := -1
	for i, e := range entries {
		if baselineOnly && e.Class != TraceBaseline {
			continue
		}
		if best < 0 || e.seq < entries[best].seq {
			best = i
		}
	}
	return best
}

// recalcThreshold refreshes the cached slow threshold after the n-th
// offer: the exact 99th percentile of the recent durations, floored at
// MinSlow. An exact order statistic tracks the tail at any latency; a
// bucketed estimate sits on a bucket edge, which for a workload whose
// whole distribution fits inside one bucket is below every request. Until
// the first recompute there is no threshold (it reads 0) and nothing is
// classed slow: the floor alone is below every request of a workload whose
// median is above it, and would retain the first recalcEvery−1 of them.
func (r *Recorder) recalcThreshold(n uint64) {
	n = min(n, recentDurations)
	// One pass keeps the k largest, ascending; few durations displace the
	// smallest of them, so the re-sort of at most slowTail values is rare.
	var buf [slowTail]int64
	top, k := buf[:0], max(1, int(n)*slowTail/recentDurations)
	for i := range r.recent[:n] {
		v := r.recent[i].Load()
		if len(top) < k {
			top = append(top, v)
		} else if v > top[0] {
			top[0] = v
		} else {
			continue
		}
		slices.Sort(top)
	}
	r.threshold.Store(max(r.floorNS, top[0]))
}

// rand draws from [0, max) via an atomic xorshift step.
func (r *Recorder) rand(max uint64) uint64 {
	for {
		old := r.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if r.rng.CompareAndSwap(old, x) {
			return x % max
		}
	}
}

// TraceFilter selects retained traces in List.
type TraceFilter struct {
	Endpoint  string        // exact match when non-empty
	MinDur    time.Duration // only traces at least this slow
	ErrorOnly bool          // only the error class
	Limit     int           // max results, most recent first; <=0 means all
}

// List returns the retained traces matching f, newest first.
func (r *Recorder) List(f TraceFilter) []*RetainedTrace {
	if r == nil {
		return nil
	}
	minUS := f.MinDur.Microseconds()
	var out []*RetainedTrace
	r.mu.Lock()
	for _, e := range r.entries {
		if f.Endpoint != "" && e.Endpoint != f.Endpoint {
			continue
		}
		if e.DurationUS < minUS {
			continue
		}
		if f.ErrorOnly && e.Class != TraceError {
			continue
		}
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// Get returns the retained trace whose request ID or hex trace ID
// matches id, or nil. Accepting either spelling lets an operator paste
// whatever identifier they have — a request id from a log line or a
// trace id from a collector UI.
func (r *Recorder) Get(id string) *RetainedTrace {
	if r == nil || id == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.RequestID == id || (e.TraceID != "" && e.TraceID == id) {
			return e
		}
	}
	return nil
}

// RecorderStats summarizes the recorder for /metrics and /debug/traces.
type RecorderStats struct {
	Capacity    int    `json:"capacity"`
	Retained    int    `json:"retained"`
	Errors      int    `json:"errors"`
	Slow        int    `json:"slow"`
	Baseline    int    `json:"baseline"`
	Offered     uint64 `json:"offered"`
	Dropped     uint64 `json:"dropped"`
	ThresholdUS int64  `json:"threshold_us"`
}

// Stats counts the current ring contents. Safe on nil (zero stats).
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	st := RecorderStats{
		Capacity:    r.capacity,
		Offered:     r.offers.Load(),
		Dropped:     r.dropped.Load(),
		ThresholdUS: r.threshold.Load() / 1e3,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		st.Retained++
		switch e.Class {
		case TraceError:
			st.Errors++
		case TraceSlow:
			st.Slow++
		default:
			st.Baseline++
		}
	}
	return st
}
