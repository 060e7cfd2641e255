package obs

import (
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// fakeCapture stands in for runtime/pprof: it writes a recognizable
// payload and counts start/stop pairing.
type fakeCapture struct {
	starts atomic.Int32
	stops  atomic.Int32
	w      atomic.Value // io.Writer of the active capture
}

func (f *fakeCapture) start(w io.Writer) error {
	f.starts.Add(1)
	f.w.Store(&w)
	return nil
}

func (f *fakeCapture) stop() {
	f.stops.Add(1)
	if wp, ok := f.w.Load().(*io.Writer); ok {
		(*wp).Write([]byte("pprof-gzip-bytes")) //nolint:errcheck
	}
}

func fastProfiler(fc *fakeCapture, every time.Duration, burst int) *TailProfiler {
	return NewTailProfiler(ProfilerConfig{
		Every:   every,
		Burst:   burst,
		Capture: time.Millisecond,
		Ring:    3,
		Start:   fc.start,
		Stop:    fc.stop,
	})
}

func waitCaptured(t *testing.T, p *TailProfiler, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Captured < want {
		if time.Now().After(deadline) {
			t.Fatalf("captured %d, want %d", p.Stats().Captured, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProfilerCapturesAndLinks(t *testing.T) {
	fc := &fakeCapture{}
	p := fastProfiler(fc, time.Hour, 1)
	defer p.Close()

	trace := NewTraceID().String()
	if !p.Trigger(trace, "req-7", "slow") {
		t.Fatal("first trigger with a full bucket refused")
	}
	waitCaptured(t, p, 1)

	list := p.List()
	if len(list) != 1 {
		t.Fatalf("list has %d entries", len(list))
	}
	cp := list[0]
	if cp.TraceID != trace || cp.RequestID != "req-7" || cp.Reason != "slow" {
		t.Errorf("attribution wrong: %+v", cp)
	}
	if cp.Bytes != nil {
		t.Error("list leaked payload bytes")
	}
	if cp.Size != len("pprof-gzip-bytes") {
		t.Errorf("size %d", cp.Size)
	}

	got, ok := p.Get(cp.ID)
	if !ok || string(got.Bytes) != "pprof-gzip-bytes" {
		t.Fatalf("Get(%s) = %+v, %v", cp.ID, got, ok)
	}
	byTrace, ok := p.ByTraceID(trace)
	if !ok || byTrace.ID != cp.ID {
		t.Fatalf("ByTraceID(%s) = %+v, %v", trace, byTrace, ok)
	}
	if _, ok := p.ByTraceID("no-such-trace"); ok {
		t.Error("ByTraceID matched a foreign trace")
	}
	if fc.starts.Load() != fc.stops.Load() {
		t.Errorf("start/stop unbalanced: %d/%d", fc.starts.Load(), fc.stops.Load())
	}
}

func TestProfilerRateLimit(t *testing.T) {
	fc := &fakeCapture{}
	p := fastProfiler(fc, time.Hour, 1) // one token, no refill within the test
	defer p.Close()

	if !p.Trigger("t1", "r1", "slow") {
		t.Fatal("first trigger refused")
	}
	waitCaptured(t, p, 1)
	for i := 0; i < 5; i++ {
		if p.Trigger("t2", "r2", "slow") {
			t.Fatal("trigger accepted with an empty bucket")
		}
	}
	st := p.Stats()
	if st.Captured != 1 || st.Skipped != 5 || st.Triggered != 6 {
		t.Errorf("stats %+v", st)
	}
}

func TestProfilerTokenRefill(t *testing.T) {
	fc := &fakeCapture{}
	p := fastProfiler(fc, 20*time.Millisecond, 1)
	defer p.Close()

	if !p.Trigger("t1", "r1", "slow") {
		t.Fatal("first trigger refused")
	}
	waitCaptured(t, p, 1)
	deadline := time.Now().Add(5 * time.Second)
	for !p.Trigger("t2", "r2", "error") {
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitCaptured(t, p, 2)
}

func TestProfilerRingEviction(t *testing.T) {
	fc := &fakeCapture{}
	p := fastProfiler(fc, time.Nanosecond, 10) // effectively unlimited tokens
	defer p.Close()

	for i := 0; i < 5; i++ {
		id := NewTraceID().String()
		deadline := time.Now().Add(5 * time.Second)
		for !p.Trigger(id, "r", "slow") {
			if time.Now().After(deadline) {
				t.Fatal("trigger starved")
			}
			time.Sleep(time.Millisecond)
		}
		waitCaptured(t, p, uint64(i+1))
	}
	list := p.List()
	if len(list) != 3 { // Ring: 3
		t.Fatalf("ring holds %d, want 3", len(list))
	}
	// Newest first, and the oldest two evicted.
	if list[0].ID != "p000005" || list[2].ID != "p000003" {
		t.Errorf("ring order/eviction wrong: %s .. %s", list[0].ID, list[2].ID)
	}
	if _, ok := p.Get("p000001"); ok {
		t.Error("evicted profile still retrievable")
	}
}

func TestProfilerCloseStopsTriggers(t *testing.T) {
	fc := &fakeCapture{}
	p := fastProfiler(fc, time.Nanosecond, 10)
	p.Trigger("t", "r", "slow")
	p.Close()
	if p.Trigger("t2", "r2", "slow") {
		t.Error("closed profiler accepted a trigger")
	}
	if fc.starts.Load() != fc.stops.Load() {
		t.Errorf("capture left running across Close: %d/%d", fc.starts.Load(), fc.stops.Load())
	}
}

// TestProfilerCloseCutsCaptureShort: Close does not wait out the capture
// window — it stops the CPU profiler once, drops the partial profile and
// returns.
func TestProfilerCloseCutsCaptureShort(t *testing.T) {
	fc := &fakeCapture{}
	p := NewTailProfiler(ProfilerConfig{Capture: 10 * time.Second, Start: fc.start, Stop: fc.stop})
	if !p.Trigger("t", "r", "slow") {
		t.Fatal("trigger refused")
	}
	for fc.starts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	p.Close()
	if d := time.Since(t0); d > 50*time.Millisecond {
		t.Errorf("Close took %v with a 10s capture in flight, want < 50ms", d)
	}
	if n := fc.stops.Load(); n != 1 {
		t.Errorf("Stop called %d times, want exactly once", n)
	}
	if st := p.Stats(); st.Captured != 0 || st.Retained != 0 || len(p.List()) != 0 {
		t.Errorf("partial profile was filed: %+v", st)
	}
	p.Close() // idempotent
}

func TestProfilerNilSafe(t *testing.T) {
	var p *TailProfiler
	if p.Trigger("t", "r", "slow") {
		t.Error("nil profiler accepted a trigger")
	}
	if got := p.List(); got != nil {
		t.Errorf("nil list %v", got)
	}
	if _, ok := p.Get("p000001"); ok {
		t.Error("nil get succeeded")
	}
	if _, ok := p.ByTraceID("t"); ok {
		t.Error("nil by-trace succeeded")
	}
	if st := p.Stats(); st != (ProfilerStats{}) {
		t.Errorf("nil stats %+v", st)
	}
	p.Close()
}

func TestProfilerRealPprof(t *testing.T) {
	// One capture through the real runtime/pprof hooks: the payload must
	// be non-empty and gzip-framed (0x1f 0x8b).
	p := NewTailProfiler(ProfilerConfig{Every: time.Hour, Burst: 1, Capture: 50 * time.Millisecond, Ring: 1})
	defer p.Close()
	if !p.Trigger(NewTraceID().String(), "req-real", "slow") {
		t.Skip("CPU profiler unavailable (held elsewhere)")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Captured == 0 {
		if p.Stats().Skipped > 0 {
			t.Skip("CPU profiler contended in this process")
		}
		if time.Now().After(deadline) {
			t.Fatal("real capture never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	list := p.List()
	cp, ok := p.Get(list[0].ID)
	if !ok || cp.Size == 0 {
		t.Fatalf("real profile empty: %+v", cp)
	}
	if cp.Bytes[0] != 0x1f || cp.Bytes[1] != 0x8b {
		t.Errorf("payload not gzip-framed: % x", cp.Bytes[:2])
	}
}
