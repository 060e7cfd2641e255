package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// offerN offers n copies of a request template with distinct IDs.
func offerN(r *Recorder, n int, prefix string, d time.Duration, status int, isErr bool) {
	for i := 0; i < n; i++ {
		root := New("/v1/knn")
		root.End()
		r.Offer(CompletedRequest{
			RequestID: fmt.Sprintf("%s%04d", prefix, i),
			Endpoint:  "/v1/knn",
			Status:    status,
			Error:     isErr,
			Start:     time.Now(),
			Duration:  d,
			Root:      root,
		})
	}
}

func TestRecorderRetainsAllErrors(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 32, Baseline: 8})
	// Interleave a flood of fast, healthy requests with 30 errors: every
	// error must survive, however many baselines competed for the ring.
	for i := 0; i < 30; i++ {
		offerN(r, 10, fmt.Sprintf("ok%02d-", i), 100*time.Microsecond, 200, false)
		offerN(r, 1, fmt.Sprintf("err%02d-", i), 100*time.Microsecond, 500, true)
	}
	got := r.List(TraceFilter{ErrorOnly: true})
	if len(got) != 30 {
		t.Fatalf("retained %d errored traces, want all 30", len(got))
	}
	st := r.Stats()
	if st.Errors != 30 || st.Retained > 32 {
		t.Fatalf("stats = %+v, want 30 errors within capacity 32", st)
	}
}

// TestRecorderRetentionProperty is the retention-policy property test:
// errored and over-threshold traces are never evicted while a baseline
// sample occupies a slot, in whatever order the classes arrive.
func TestRecorderRetentionProperty(t *testing.T) {
	const capacity = 24
	for _, order := range []string{"baseline-first", "tail-first", "interleaved"} {
		t.Run(order, func(t *testing.T) {
			r := NewRecorder(RecorderConfig{Capacity: capacity, Baseline: 6})
			// Nothing is classed slow before the first threshold exists.
			offerN(r, recalcEvery, "warm", 100*time.Microsecond, 200, false)
			tail := func(i int) {
				// Half errors, half over-threshold (default floor is 1ms).
				if i%2 == 0 {
					offerN(r, 1, fmt.Sprintf("e%03d-", i), 200*time.Microsecond, 503, true)
				} else {
					offerN(r, 1, fmt.Sprintf("s%03d-", i), 50*time.Millisecond, 200, false)
				}
			}
			base := func(i int) {
				offerN(r, 1, fmt.Sprintf("b%03d-", i), 100*time.Microsecond, 200, false)
			}
			const tails = capacity - 4 // fits in the ring with room to spare
			switch order {
			case "baseline-first":
				for i := 0; i < 100; i++ {
					base(i)
				}
				for i := 0; i < tails; i++ {
					tail(i)
				}
			case "tail-first":
				for i := 0; i < tails; i++ {
					tail(i)
				}
				for i := 0; i < 100; i++ {
					base(i)
				}
			default:
				for i := 0; i < 100; i++ {
					base(i)
					if i < tails {
						tail(i)
					}
				}
			}
			st := r.Stats()
			if st.Errors+st.Slow != tails {
				t.Fatalf("%s: retained %d error + %d slow, want %d tail traces held; stats %+v",
					order, st.Errors, st.Slow, tails, st)
			}
			if st.Retained > capacity {
				t.Fatalf("%s: retained %d > capacity %d", order, st.Retained, capacity)
			}
			if st.Baseline == 0 {
				t.Fatalf("%s: no baseline samples survived alongside %d tails (capacity %d)",
					order, tails, capacity)
			}
		})
	}
}

func TestRecorderAdaptiveThreshold(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 64, MinSlow: time.Millisecond})
	if got := r.Stats().ThresholdUS; got != 0 {
		t.Fatalf("cold threshold = %dus, want none before the first recompute", got)
	}
	// A uniformly slow workload must raise the threshold above the floor
	// once the rolling window has enough samples.
	offerN(r, 200, "w", 20*time.Millisecond, 200, false)
	if got := r.Stats().ThresholdUS; got < 10_000 {
		t.Fatalf("threshold after 200 × 20ms requests = %dus, want it adapted above 10ms", got)
	}
	// And a genuinely slow outlier is retained as class "slow".
	offerN(r, 1, "spike-", 500*time.Millisecond, 200, false)
	traces := r.List(TraceFilter{MinDur: 400 * time.Millisecond})
	if len(traces) != 1 || traces[0].Class != TraceSlow {
		t.Fatalf("List(min 400ms) = %v, want the one spike as class slow", traces)
	}
	if traces[0].ThresholdUS < 10_000 {
		t.Fatalf("retained trace records threshold %dus, want the adapted value", traces[0].ThresholdUS)
	}
}

// TestRecorderSlowClassIsTheTail: "slow" means slower than ~99 % of recent
// traffic at any latency, also when the whole distribution sits inside
// one bucket of a coarse histogram (the two shapes are the benchmark's
// range_scan and knn_bigtree request times, both of which a bucket-edge
// threshold classed 100 % slow) — counted from the first offer: before the
// first recompute there is no threshold and nothing is slow, where the 1 ms
// floor alone retained every one of those requests. Errors ride through
// untouched.
func TestRecorderSlowClassIsTheTail(t *testing.T) {
	for _, d := range []struct{ lo, hi time.Duration }{
		{2000 * time.Microsecond, 2400 * time.Microsecond},
		{6000 * time.Microsecond, 7500 * time.Microsecond},
	} {
		r := NewRecorder(RecorderConfig{Capacity: 256})
		root := New("/v1/range")
		root.End()
		const offers = 5000
		slow, early, errs := 0, 0, 0
		x := uint64(0x2545f4914f6cdd1d)
		for i := 0; i < offers; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			req := CompletedRequest{
				RequestID: fmt.Sprintf("q%d", i), Endpoint: "/v1/range", Status: 200, Root: root,
				Duration: d.lo + time.Duration(x%uint64(d.hi-d.lo)),
			}
			if i%500 == 499 {
				req.Status, req.Error = 500, true
				errs++
			}
			tr := r.Offer(req)
			if req.Error && (tr == nil || tr.Class != TraceError) {
				t.Fatalf("[%v,%v] errored offer %d: retained %+v", d.lo, d.hi, i, tr)
			}
			if tr != nil && tr.Class == TraceSlow {
				slow++
				if i < recalcEvery-1 {
					early++
				}
			}
		}
		thr := time.Duration(r.Stats().ThresholdUS) * time.Microsecond
		if early != 0 {
			t.Errorf("[%v,%v]: %d of the first %d offers classed slow with no threshold yet",
				d.lo, d.hi, early, recalcEvery-1)
		}
		if frac := float64(slow) / offers; frac < 0.005 || frac > 0.03 {
			t.Errorf("[%v,%v]: %.1f%% of offers classed slow (threshold %v), want 0.5%%–3%%",
				d.lo, d.hi, 100*frac, thr)
		}
		if thr < d.lo || thr > d.hi {
			t.Errorf("[%v,%v]: threshold %v outside the distribution", d.lo, d.hi, thr)
		}
		if got := len(r.List(TraceFilter{ErrorOnly: true})); got != errs {
			t.Errorf("[%v,%v]: %d of %d errored requests retained", d.lo, d.hi, got, errs)
		}
	}
}

func TestRecorderBaselineReservoirBounded(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 32, Baseline: 4})
	offerN(r, 5000, "b", 100*time.Microsecond, 200, false)
	st := r.Stats()
	// The reservoir may briefly exceed its target only by what free ring
	// space allows; with an otherwise empty ring that is the shard spill.
	if st.Baseline == 0 || st.Retained > 32 {
		t.Fatalf("stats after 5000 normal requests: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatal("reservoir admitted everything; expected most normal traces dropped")
	}
	if st.Offered != 5000 {
		t.Fatalf("offered = %d, want 5000", st.Offered)
	}
}

func TestRecorderListFiltersAndGet(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 64})
	rootA := New("/v1/knn")
	rootA.End()
	r.Offer(CompletedRequest{RequestID: "r1", Endpoint: "/v1/knn", Status: 200,
		Duration: 30 * time.Millisecond, Root: rootA, Explain: map[string]int{"candidates": 7}})
	rootB := New("/v1/range")
	rootB.End()
	r.Offer(CompletedRequest{RequestID: "r2", Endpoint: "/v1/range", Status: 500, Error: true,
		Duration: 2 * time.Millisecond, Root: rootB, Degraded: true})

	if got := r.List(TraceFilter{Endpoint: "/v1/knn"}); len(got) != 1 || got[0].RequestID != "r1" {
		t.Fatalf("endpoint filter: %+v", got)
	}
	if got := r.List(TraceFilter{MinDur: 10 * time.Millisecond}); len(got) != 1 || got[0].RequestID != "r1" {
		t.Fatalf("min-duration filter: %+v", got)
	}
	if got := r.List(TraceFilter{ErrorOnly: true}); len(got) != 1 || got[0].RequestID != "r2" {
		t.Fatalf("error filter: %+v", got)
	}
	if got := r.List(TraceFilter{Limit: 1}); len(got) != 1 || got[0].RequestID != "r2" {
		t.Fatalf("limit should keep the newest trace: %+v", got)
	}
	tr := r.Get("r2")
	if tr == nil || !tr.Degraded || tr.Class != TraceError {
		t.Fatalf("Get(r2) = %+v, want a degraded errored trace", tr)
	}
	if tr.Trace.Name != "/v1/range" {
		t.Fatalf("retained span tree root = %q", tr.Trace.Name)
	}
	if r.Get("nope") != nil {
		t.Fatal("Get of unknown ID should be nil")
	}
	if ex, ok := r.Get("r1").Explain.(map[string]int); !ok || ex["candidates"] != 7 {
		t.Fatalf("explain payload lost: %+v", r.Get("r1").Explain)
	}
}

// TestRecorderDropIsAllocationFree pins the tentpole's perf contract:
// once the reservoir is saturated, offering a normal request that the
// recorder declines costs no allocation. The average stays below one
// even counting the rare reservoir admissions and threshold recomputes.
func TestRecorderDropIsAllocationFree(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 32, Baseline: 4})
	offerN(r, 10_000, "warm", 100*time.Microsecond, 200, false)
	req := CompletedRequest{
		RequestID: "hot",
		Endpoint:  "/v1/knn",
		Status:    200,
		Start:     time.Now(),
		Duration:  100 * time.Microsecond,
		Root:      New("hot"),
	}
	req.Root.End()
	avg := testing.AllocsPerRun(2000, func() { r.Offer(req) })
	if avg >= 1 {
		t.Fatalf("dropped offer allocates %.3f objects/op, want amortized zero", avg)
	}
}

// TestRecorderHammer drives concurrent writers and readers; run under
// -race it is the ring buffer's concurrency test.
func TestRecorderHammer(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 64, Baseline: 8})
	const writers, readers, perWriter = 4, 3, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				root := New("/v1/knn")
				root.StartChild("refine").End()
				root.End()
				r.Offer(CompletedRequest{
					RequestID: fmt.Sprintf("w%d-%04d", w, i),
					Endpoint:  "/v1/knn",
					Status:    []int{200, 200, 200, 503}[i%4],
					Error:     i%4 == 3,
					Duration:  time.Duration(i%50) * time.Millisecond,
					Root:      root,
				})
			}
		}(w)
	}
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range r.List(TraceFilter{Limit: 16}) {
					_ = tr.Trace.Name
				}
				r.Get(fmt.Sprintf("w%d-0001", g))
				_ = r.Stats()
			}
		}(g)
	}
	// Stop the readers once every writer's offers have landed.
	go func() {
		defer close(stop)
		for r.Stats().Offered < writers*perWriter {
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	st := r.Stats()
	if st.Offered != writers*perWriter {
		t.Fatalf("offered = %d, want %d", st.Offered, writers*perWriter)
	}
	if st.Retained == 0 || st.Retained > 64 {
		t.Fatalf("retained = %d, want within (0, 64]", st.Retained)
	}
}

func TestRecorderNilIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Offer(CompletedRequest{RequestID: "x"}) != nil {
		t.Fatal("nil recorder retained a trace")
	}
	if r.List(TraceFilter{}) != nil || r.Get("x") != nil {
		t.Fatal("nil recorder returned traces")
	}
	if st := r.Stats(); st != (RecorderStats{}) {
		t.Fatalf("nil recorder stats = %+v", st)
	}
}
