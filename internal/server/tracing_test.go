package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"treesim/internal/obs"
	"treesim/internal/search"
)

// Distributed-tracing tests: W3C traceparent propagation through the
// middleware, the OTLP/JSON export pipeline against an in-process sink,
// and a goroutine-leak guard over the exporter's worker.

// noLeaks fails the test if the goroutine count has not returned to its
// starting baseline by the end of the test (after cleanups such as
// Shutdown ran). The grace loop absorbs goroutines that are mid-exit.
func noLeaks(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= baseline {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
					runtime.NumGoroutine(), baseline, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// testOTLPSink is an in-process collector: every body is validated as
// OTLP/JSON and its spans are indexed by trace ID.
type testOTLPSink struct {
	t  *testing.T
	mu sync.Mutex

	batches int
	spans   int
	// traces maps hex trace id -> the root span names seen for it.
	traces map[string][]string
	// parents maps hex trace id -> the root spans' parentSpanId values.
	parents map[string][]string
	// retries collects the root spans' retry attribute values, when set.
	retries map[string][]string
}

func newTestOTLPSink(t *testing.T) *testOTLPSink {
	return &testOTLPSink{
		t:       t,
		traces:  map[string][]string{},
		parents: map[string][]string{},
		retries: map[string][]string{},
	}
}

func (s *testOTLPSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	if _, err := obs.CountOTLPSpans(body); err != nil {
		s.t.Errorf("sink received invalid OTLP body: %v", err)
		http.Error(w, "invalid", http.StatusBadRequest)
		return
	}
	var req struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Kind         int    `json:"kind"`
					Attributes   []struct {
						Key   string `json:"key"`
						Value struct {
							IntValue string `json:"intValue"`
						} `json:"value"`
					} `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		s.t.Errorf("sink decode: %v", err)
		http.Error(w, "decode", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	for _, rs := range req.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				s.spans++
				if sp.Kind != 2 { // roots only for the per-trace indexes
					continue
				}
				s.traces[sp.TraceID] = append(s.traces[sp.TraceID], sp.Name)
				s.parents[sp.TraceID] = append(s.parents[sp.TraceID], sp.ParentSpanID)
				for _, a := range sp.Attributes {
					if a.Key == "retry" {
						s.retries[sp.TraceID] = append(s.retries[sp.TraceID], a.Value.IntValue)
					}
				}
			}
		}
	}
	w.WriteHeader(http.StatusOK)
}

// newTracingServer wires a server to an in-process OTLP sink with
// export of every trace and a fast exporter flush on Shutdown.
func newTracingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *testOTLPSink) {
	t.Helper()
	sink := newTestOTLPSink(t)
	collector := httptest.NewServer(sink)
	t.Cleanup(collector.Close)
	cfg.OTLPEndpoint = collector.URL
	if cfg.TraceSample == 0 {
		cfg.TraceSample = 1
	}
	ts := testDataset(40, 1)
	ix := search.NewIndex(ts, search.NewBiBranch())
	s := New(ix, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, sink
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestTraceparentContinuesTrace: an inbound traceparent's trace ID
// flows through the middleware to the response header and out the OTLP
// exporter, with the server's root span parented under the caller's
// span — the acceptance path for cross-process joins.
func TestTraceparentContinuesTrace(t *testing.T) {
	noLeaks(t)
	s, hs, sink := newTracingServer(t, quietConfig())
	ts := testDataset(1, 7)

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	body, _ := json.Marshal(KNNRequest{Tree: ts[0].String(), K: 3})
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/knn", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	req.Header.Set("tracestate", obs.RetryState(2))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("knn status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != callerTrace {
		t.Fatalf("X-Trace-Id %q, want the caller's %q", got, callerTrace)
	}

	shutdownServer(t, s) // flushes the exporter
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if names := sink.traces[callerTrace]; len(names) != 1 || names[0] != "/v1/knn" {
		t.Fatalf("exported roots for caller trace: %v", sink.traces[callerTrace])
	}
	if parents := sink.parents[callerTrace]; len(parents) != 1 || parents[0] != callerSpan {
		t.Fatalf("root parent %v, want caller span %s", sink.parents[callerTrace], callerSpan)
	}
	if retries := sink.retries[callerTrace]; len(retries) != 1 || retries[0] != "2" {
		t.Fatalf("retry attr %v, want [\"2\"]", sink.retries[callerTrace])
	}
	if st := s.exporter.Stats(); st.Dropped != 0 || st.Batches == 0 {
		t.Fatalf("exporter stats %+v", st)
	}
}

// TestTraceparentMalformedFallsBack: the middleware answers 200 with a
// fresh, valid trace for every malformed header shape the W3C spec
// rejects — never the inbound identity, never an error.
func TestTraceparentMalformedFallsBack(t *testing.T) {
	noLeaks(t)
	s, hs, _ := newTracingServer(t, quietConfig())
	defer shutdownServer(t, s)
	ts := testDataset(1, 7)
	body, _ := json.Marshal(KNNRequest{Tree: ts[0].String(), K: 3})

	const inTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, header := range []string{
		"",
		"garbage",
		"ff-" + inTrace + "-00f067aa0ba902b7-01", // forbidden version
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",  // all-zero trace id
		"00-" + inTrace + "-0000000000000000-01",                  // all-zero parent id
		"00-" + strings.ToUpper(inTrace) + "-00f067aa0ba902b7-01", // uppercase hex
		"00-" + inTrace[:20] + "-00f067aa0ba902b7-01",             // short trace id
		"00-" + inTrace + "-00f067aa0ba902b7-zz",                  // junk flags
		"00-" + inTrace + "-00f067aa0ba902b7-01-extra",            // version 00, extra field
	} {
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/knn", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if header != "" {
			req.Header.Set("traceparent", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("header %q: status %d, want 200", header, resp.StatusCode)
			continue
		}
		got := resp.Header.Get("X-Trace-Id")
		if _, ok := obs.ParseTraceID(got); !ok {
			t.Errorf("header %q: fresh trace id %q invalid", header, got)
		}
		if got == inTrace {
			t.Errorf("header %q: middleware adopted the malformed trace id", header)
		}
	}
}

// FuzzTraceparentMiddleware drives arbitrary header bytes through the
// real middleware: the request must succeed and the response must carry
// a valid trace ID no matter what the header looks like.
func FuzzTraceparentMiddleware(f *testing.F) {
	ts := testDataset(1, 7)
	ix := search.NewIndex(testDataset(20, 1), search.NewBiBranch())
	s := New(ix, quietConfig())
	body, _ := json.Marshal(KNNRequest{Tree: ts[0].String(), K: 3})

	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("not a header at all")
	f.Add("00-")
	f.Fuzz(func(t *testing.T, header string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/knn", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("traceparent", header)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("header %q: status %d", header, rec.Code)
		}
		got := rec.Header().Get("X-Trace-Id")
		if _, ok := obs.ParseTraceID(got); !ok {
			t.Fatalf("header %q: X-Trace-Id %q invalid", header, got)
		}
		if tc, err := obs.ParseTraceparent(header); err == nil && tc.TraceID.String() != got {
			t.Fatalf("valid header %q not continued: got %s", header, got)
		}
	})
}

// TestExportPipelineEndToEnd: normal traffic with full head sampling
// reaches the sink as valid OTLP batches; /metrics reports the
// pipeline's health in both JSON and Prometheus form.
func TestExportPipelineEndToEnd(t *testing.T) {
	noLeaks(t)
	s, hs, sink := newTracingServer(t, quietConfig())
	ts := testDataset(5, 3)
	for i := 0; i < 5; i++ {
		if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[i].String(), K: 3}, nil); code != 200 {
			t.Fatalf("knn %d status %d", i, code)
		}
	}

	if got := scrapeJSON(t, hs.URL)["treesim_otlp_offered_total"]; got != 5 {
		t.Fatalf("otlp_offered_total %v, want 5", got)
	}

	resp, err := http.Get(hs.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"treesim_otlp_offered_total", "treesim_otlp_dropped_total",
		"treesim_otlp_batch_latency_seconds",
	} {
		if !bytes.Contains(prom, []byte(family)) {
			t.Errorf("prom exposition missing %s", family)
		}
	}

	shutdownServer(t, s)
	sink.mu.Lock()
	batches, spans := sink.batches, sink.spans
	sink.mu.Unlock()
	if batches < 1 || spans < 5 {
		t.Fatalf("sink saw %d batches / %d spans, want >=1 / >=5", batches, spans)
	}
	if st := s.exporter.Stats(); st.Dropped != 0 {
		t.Fatalf("exporter dropped %d", st.Dropped)
	}
}

// TestTraceSampleZeroExportsOnlyTails: with head sampling off, a normal
// fast request (post-warmup, so it loses the tail classes) may still
// export only if the recorder retained it; an unsampled inbound header
// with flags 00 must not force export by itself. We pin the cheap
// invariant: offered count never exceeds what the middleware classified
// as exportable, and a sampled inbound header does force export.
func TestTraceSampleZeroExportsOnlyTails(t *testing.T) {
	noLeaks(t)
	cfg := quietConfig()
	cfg.TraceRing = -1 // no recorder: no tails, no baseline retention
	sink := newTestOTLPSink(t)
	collector := httptest.NewServer(sink)
	t.Cleanup(collector.Close)
	cfg.OTLPEndpoint = collector.URL
	cfg.TraceSample = -1 // sentinel below zero so newTracingServer's default doesn't apply
	ix := search.NewIndex(testDataset(20, 1), search.NewBiBranch())
	s := New(ix, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	ts := testDataset(2, 9)

	// Unsampled: no export.
	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[0].String(), K: 3}, nil); code != 200 {
		t.Fatalf("knn status %d", code)
	}
	// Caller-sampled: exported despite rate 0.
	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	body, _ := json.Marshal(KNNRequest{Tree: ts[1].String(), K: 3})
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/knn", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+callerTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	shutdownServer(t, s)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.traces[callerTrace]) != 1 {
		t.Fatalf("caller-sampled trace exported %d times, want 1", len(sink.traces[callerTrace]))
	}
	if len(sink.traces) != 1 {
		t.Fatalf("unsampled traffic leaked into export: %v", sink.traces)
	}
}

// TestShutdownStopsTracingWorkers: a server with the exporter enabled
// tears it down on Shutdown — covered by noLeaks, plus the explicit
// post-shutdown behavior: a second close returns at once.
func TestShutdownStopsTracingWorkers(t *testing.T) {
	noLeaks(t)
	s, hs, _ := newTracingServer(t, quietConfig())
	ts := testDataset(1, 7)
	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[0].String(), K: 3}, nil); code != 200 {
		t.Fatalf("knn status %d", code)
	}
	shutdownServer(t, s)
	// Close is idempotent through Shutdown's path.
	if err := s.exporter.Close(context.Background()); err != nil {
		t.Errorf("second exporter close: %v", err)
	}
}
