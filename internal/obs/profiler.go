package obs

import (
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// TailProfiler turns the flight recorder's verdicts into evidence:
// when a trace is retained as slow or errored, Trigger starts a short
// CPU profile and files the pprof-gzip bytes in an in-memory ring,
// keyed back to the trace that caused it. The operator reads the
// profile from /debug/profiles minutes later instead of racing to
// attach pprof while the tail condition still holds.
//
// Profiles are expensive and runtime/pprof allows only one CPU profile
// per process, so Trigger is doubly guarded: a token bucket (default
// one capture per minute) absorbs tail storms, and a busy flag drops
// triggers that land mid-capture. Dropped triggers are counted, never
// queued — the next slow request will re-trigger.
//
// Methods are safe on a nil *TailProfiler (disabled), like the
// package's other optional components.
type TailProfiler struct {
	cfg   ProfilerConfig
	start func(io.Writer) error // pprof.StartCPUProfile, injectable for tests
	stop  func()

	mu      sync.Mutex
	ring    []CapturedProfile // newest last, capped at cfg.Ring
	seq     uint64
	tokens  float64
	lastRef time.Time // last token refill

	busy      atomic.Bool
	triggered atomic.Uint64
	captured  atomic.Uint64
	skipped   atomic.Uint64 // rate-limited or mid-capture

	wg     sync.WaitGroup
	closed atomic.Bool
	done   chan struct{} // closed with closed: ends an in-flight capture early
}

// ProfilerConfig sizes a TailProfiler. Zero values take defaults.
type ProfilerConfig struct {
	Every   time.Duration // token refill interval: one capture per Every (default 1m)
	Burst   int           // bucket capacity (default 1)
	Capture time.Duration // CPU profile duration (default 500ms)
	Ring    int           // retained profiles (default 8)

	// Start/Stop override runtime/pprof for tests; both or neither.
	Start func(io.Writer) error
	Stop  func()
}

func (c ProfilerConfig) withDefaults() ProfilerConfig {
	if c.Every <= 0 {
		c.Every = time.Minute
	}
	if c.Burst <= 0 {
		c.Burst = 1
	}
	if c.Capture <= 0 {
		c.Capture = 500 * time.Millisecond
	}
	if c.Ring <= 0 {
		c.Ring = 8
	}
	if c.Start == nil || c.Stop == nil {
		c.Start = pprof.StartCPUProfile
		c.Stop = pprof.StopCPUProfile
	}
	return c
}

// CapturedProfile is one completed capture. Bytes holds the pprof-gzip
// payload, served verbatim by /debug/profiles/{id}.
type CapturedProfile struct {
	ID         string    `json:"id"`
	TraceID    string    `json:"trace_id,omitempty"`
	RequestID  string    `json:"request_id,omitempty"`
	Reason     string    `json:"reason"` // recorder class that pulled the trigger
	Start      time.Time `json:"start"`
	DurationMS int64     `json:"duration_ms"`
	Size       int       `json:"size_bytes"`

	Bytes []byte `json:"-"`
}

// NewTailProfiler returns a profiler with a full token bucket, so the
// first tail after startup profiles immediately.
func NewTailProfiler(cfg ProfilerConfig) *TailProfiler {
	cfg = cfg.withDefaults()
	return &TailProfiler{
		cfg:     cfg,
		start:   cfg.Start,
		stop:    cfg.Stop,
		tokens:  float64(cfg.Burst),
		lastRef: time.Now(),
		done:    make(chan struct{}),
	}
}

// Trigger requests a capture attributed to the given trace. It returns
// immediately; the capture itself runs on its own goroutine. False
// means the trigger was absorbed (rate limit, capture in progress, or
// closed) — counted, not queued.
func (p *TailProfiler) Trigger(traceID, requestID, reason string) bool {
	if p == nil || p.closed.Load() {
		return false
	}
	p.triggered.Add(1)
	if !p.takeToken() {
		p.skipped.Add(1)
		return false
	}
	if !p.busy.CompareAndSwap(false, true) {
		p.skipped.Add(1)
		return false
	}
	p.wg.Add(1)
	go p.capture(traceID, requestID, reason)
	return true
}

// takeToken refills by elapsed time and spends one token if available.
func (p *TailProfiler) takeToken() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	p.tokens += now.Sub(p.lastRef).Seconds() / p.cfg.Every.Seconds()
	if max := float64(p.cfg.Burst); p.tokens > max {
		p.tokens = max
	}
	p.lastRef = now
	if p.tokens < 1 {
		return false
	}
	p.tokens--
	return true
}

// capture runs one CPU profile and files it in the ring.
func (p *TailProfiler) capture(traceID, requestID, reason string) {
	defer p.wg.Done()
	defer p.busy.Store(false)
	var buf bytes.Buffer
	start := time.Now()
	if err := p.start(&buf); err != nil {
		// Another subsystem holds the CPU profiler (e.g. an operator on
		// /debug/pprof); skip rather than fight over it.
		p.skipped.Add(1)
		return
	}
	timer := time.NewTimer(p.cfg.Capture)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-p.done:
	}
	p.stop()
	if p.closed.Load() {
		return // shutting down: a partial profile answers for nothing, drop it
	}
	dur := time.Since(start)

	p.mu.Lock()
	p.seq++
	cp := CapturedProfile{
		ID:         fmt.Sprintf("p%06d", p.seq),
		TraceID:    traceID,
		RequestID:  requestID,
		Reason:     reason,
		Start:      start,
		DurationMS: dur.Milliseconds(),
		Size:       buf.Len(),
		Bytes:      buf.Bytes(),
	}
	p.ring = append(p.ring, cp)
	if len(p.ring) > p.cfg.Ring {
		p.ring = p.ring[len(p.ring)-p.cfg.Ring:]
	}
	p.mu.Unlock()
	p.captured.Add(1)
}

// List returns the retained profiles, newest first, without payloads.
func (p *TailProfiler) List() []CapturedProfile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]CapturedProfile, 0, len(p.ring))
	for i := len(p.ring) - 1; i >= 0; i-- {
		cp := p.ring[i]
		cp.Bytes = nil
		out = append(out, cp)
	}
	return out
}

// Get returns one profile, payload included, by its id.
func (p *TailProfiler) Get(id string) (CapturedProfile, bool) {
	if p == nil {
		return CapturedProfile{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cp := range p.ring {
		if cp.ID == id {
			return cp, true
		}
	}
	return CapturedProfile{}, false
}

// ByTraceID returns the newest profile attributed to the trace, without
// its payload — the link /debug/traces/{id} embeds.
func (p *TailProfiler) ByTraceID(traceID string) (CapturedProfile, bool) {
	if p == nil || traceID == "" {
		return CapturedProfile{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.ring) - 1; i >= 0; i-- {
		if p.ring[i].TraceID == traceID {
			cp := p.ring[i]
			cp.Bytes = nil
			return cp, true
		}
	}
	return CapturedProfile{}, false
}

// ProfilerStats summarizes the profiler for /metrics.
type ProfilerStats struct {
	Triggered uint64 `json:"triggered"`
	Captured  uint64 `json:"captured"`
	Skipped   uint64 `json:"skipped"` // rate-limited, busy, or profiler contended
	Retained  int    `json:"retained"`
}

// Stats reads the current counters. Safe on nil (zero stats).
func (p *TailProfiler) Stats() ProfilerStats {
	if p == nil {
		return ProfilerStats{}
	}
	p.mu.Lock()
	retained := len(p.ring)
	p.mu.Unlock()
	return ProfilerStats{
		Triggered: p.triggered.Load(),
		Captured:  p.captured.Load(),
		Skipped:   p.skipped.Load(),
		Retained:  retained,
	}
}

// Close refuses new triggers, cuts an in-flight capture short (its
// partial profile is discarded) and returns once the capture goroutine
// has stopped the CPU profiler.
func (p *TailProfiler) Close() {
	if p == nil {
		return
	}
	if p.closed.CompareAndSwap(false, true) {
		close(p.done)
	}
	p.wg.Wait()
}
