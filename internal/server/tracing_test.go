package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"treesim/internal/obs"
	"treesim/internal/search"
)

// Distributed-tracing tests: W3C traceparent propagation through the
// middleware to the response, the ?trace=1 span tree and the flight
// recorder, under a goroutine-leak guard.

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

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestTraceparentContinuesTrace: an inbound traceparent's trace ID
// flows through the middleware to the response header, the ?trace=1
// span tree and the flight recorder, with the server's root span
// parented under the caller's span — the acceptance path for
// cross-process joins.
func TestTraceparentContinuesTrace(t *testing.T) {
	noLeaks(t)
	s, hs, _ := newTestServer(t, quietConfig(), 40, 1)
	defer shutdownServer(t, s)
	ts := testDataset(1, 7)

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	body, _ := json.Marshal(KNNRequest{Tree: ts[0].String(), K: 3})
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/knn?trace=1", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	req.Header.Set("tracestate", obs.RetryState(2))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	derr := json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if resp.StatusCode != 200 || derr != nil {
		t.Fatalf("knn status %d, decode %v", resp.StatusCode, derr)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != callerTrace {
		t.Fatalf("X-Trace-Id %q, want the caller's %q", got, callerTrace)
	}

	var tr obs.RetainedTrace
	if code := getJSON(t, hs.URL+"/debug/traces/"+callerTrace, &tr); code != 200 {
		t.Fatalf("/debug/traces/%s status %d", callerTrace, code)
	}
	if qr.Trace == nil {
		t.Fatal("no ?trace=1 span tree in the response")
	}
	for src, root := range map[string]obs.SpanSnapshot{"?trace=1": *qr.Trace, "/debug/traces": tr.Trace} {
		if root.Name != "/v1/knn" || root.TraceID != callerTrace {
			t.Errorf("%s root %q in trace %q, want /v1/knn in the caller's %s", src, root.Name, root.TraceID, callerTrace)
		}
		if root.ParentSpanID != callerSpan {
			t.Errorf("%s root parent %q, want caller span %s", src, root.ParentSpanID, callerSpan)
		}
		if retry := fmt.Sprint(root.Attrs["retry"]); retry != "2" {
			t.Errorf("%s retry attr %q, want \"2\"", src, retry)
		}
	}
}

// TestTracestateLimits: a tracestate past W3C's limits — a 512 KiB value,
// or 33 members — is dropped: the request still answers 200 in the
// caller's trace, but neither the ?trace=1 root nor the retained trace
// keeps any state, and its retry member goes unread. A value within them
// is carried, and its treesim=retry:N member read.
func TestTracestateLimits(t *testing.T) {
	noLeaks(t)
	s, hs, _ := newTestServer(t, quietConfig(), 40, 1)
	defer shutdownServer(t, s)
	ts := testDataset(1, 7)
	body, _ := json.Marshal(KNNRequest{Tree: ts[0].String(), K: 3})
	many := make([]string, 32)
	for i := range many {
		many[i] = fmt.Sprintf("v%d=x", i)
	}
	for i, c := range []struct {
		name, state string
		kept        bool
	}{
		{"512 KiB", obs.RetryState(2) + ",big=" + strings.Repeat("x", 512<<10), false},
		{"33 members", obs.RetryState(2) + "," + strings.Join(many, ","), false},
		{"31 others and ours", strings.Join(many[:31], ",") + "," + obs.RetryState(2), true},
	} {
		trace := fmt.Sprintf("4bf92f3577b34da6a3ce929d0e0e%04x", i)
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/knn?trace=1", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("traceparent", "00-"+trace+"-00f067aa0ba902b7-01")
		req.Header.Set("tracestate", c.state)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var qr QueryResponse
		derr := json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if resp.StatusCode != 200 || derr != nil || qr.Trace == nil {
			t.Fatalf("%s: status %d, decode %v, trace %v", c.name, resp.StatusCode, derr, qr.Trace != nil)
		}
		var tr obs.RetainedTrace
		if code := getJSON(t, hs.URL+"/debug/traces/"+trace, &tr); code != 200 {
			t.Fatalf("%s: /debug/traces/%s status %d", c.name, trace, code)
		}
		want, retry := "", "<nil>"
		if c.kept {
			want, retry = c.state, "2"
		}
		for src, root := range map[string]obs.SpanSnapshot{"?trace=1": *qr.Trace, "/debug/traces": tr.Trace} {
			if root.TraceID != trace {
				t.Errorf("%s: %s root in trace %q, want the caller's %s", c.name, src, root.TraceID, trace)
			}
			if root.TraceState != want {
				t.Errorf("%s: %s root keeps %d bytes of tracestate, want %d", c.name, src, len(root.TraceState), len(want))
			}
			if got := fmt.Sprint(root.Attrs["retry"]); got != retry {
				t.Errorf("%s: %s retry attr %s, want %s", c.name, src, got, retry)
			}
		}
	}
}

// TestTraceparentMalformedFallsBack: the middleware answers 200 with a
// fresh, valid trace for every malformed header shape the W3C spec
// rejects — never the inbound identity, never an error.
func TestTraceparentMalformedFallsBack(t *testing.T) {
	noLeaks(t)
	s, hs, _ := newTestServer(t, quietConfig(), 40, 1)
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
