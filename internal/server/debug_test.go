package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"treesim/internal/faultfs"
)

// These tests pin the debug surface of the flight recorder: listing and
// filtering retained traces, fetching one by request ID, the SLO table,
// the loopback-only guard, and the recorder's behavior under concurrent
// query traffic and debug reads (the -race hammer).

// TestDebugTracesListAndGet: traffic through the real middleware stack
// lands in the recorder; the list endpoint filters and the get endpoint
// returns the full span tree for a listed request ID.
func TestDebugTracesListAndGet(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 40, 1)

	for i := 0; i < 10; i++ {
		if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[i].String(), K: 3}, nil); code != 200 {
			t.Fatalf("knn status %d", code)
		}
	}
	// A bad request errors with 400 — not retained as an error (only 5xx
	// spends error budget), but still offered as a normal request.
	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: "not a tree", K: 3}, nil); code != 400 {
		t.Fatalf("bad knn status %d, want 400", code)
	}

	var list DebugTracesResponse
	if code := getJSON(t, hs.URL+"/debug/traces", &list); code != 200 {
		t.Fatalf("debug/traces status %d", code)
	}
	if list.Stats.Offered < 11 {
		t.Fatalf("recorder offered %d, want >= 11", list.Stats.Offered)
	}
	if len(list.Traces) == 0 {
		t.Fatal("no retained traces after 11 requests into an empty ring")
	}
	for _, tr := range list.Traces {
		if tr.Endpoint != "/v1/knn" {
			t.Fatalf("unexpected endpoint %q in retained trace", tr.Endpoint)
		}
		if tr.Trace.Name != "/v1/knn" {
			t.Fatalf("trace root span %q, want /v1/knn", tr.Trace.Name)
		}
	}

	// Endpoint filter: nothing was retained for /v1/range.
	var empty DebugTracesResponse
	if code := getJSON(t, hs.URL+"/debug/traces?endpoint=/v1/range", &empty); code != 200 {
		t.Fatalf("filtered list status %d", code)
	}
	if len(empty.Traces) != 0 {
		t.Fatalf("endpoint filter leaked %d traces", len(empty.Traces))
	}

	// Limit caps the result count.
	var limited DebugTracesResponse
	getJSON(t, hs.URL+"/debug/traces?limit=2", &limited)
	if len(limited.Traces) > 2 {
		t.Fatalf("limit=2 returned %d traces", len(limited.Traces))
	}

	// Get by ID round-trips the full entry.
	id := list.Traces[0].RequestID
	var one map[string]any
	if code := getJSON(t, hs.URL+"/debug/traces/"+id, &one); code != 200 {
		t.Fatalf("get %s status %d", id, code)
	}
	if one["request_id"] != id {
		t.Fatalf("get returned id %v, want %s", one["request_id"], id)
	}
	// The tail profiler is gone: a trace links to no profile and the
	// profile endpoints are unrouted (CPU profiles come from -pprof).
	if _, ok := one["profile_id"]; ok {
		t.Fatalf("retained trace still carries profile_id: %v", one)
	}
	for _, path := range []string{"/debug/profiles", "/debug/profiles/p000001"} {
		if code := getJSON(t, hs.URL+path, nil); code != 404 {
			t.Fatalf("%s status %d, want 404", path, code)
		}
	}
	if code := getJSON(t, hs.URL+"/debug/traces/r00000000", nil); code != 404 {
		t.Fatalf("unknown id status %d, want 404", code)
	}

	// Bad filter parameters are rejected.
	if code := getJSON(t, hs.URL+"/debug/traces?min_us=abc", nil); code != 400 {
		t.Fatalf("min_us=abc status %d, want 400", code)
	}
}

// TestDebugLoopbackOnly: a non-loopback peer gets 403 with the forbidden
// code on every debug endpoint, while loopback (the httptest transport)
// passes.
func TestDebugLoopbackOnly(t *testing.T) {
	s, hs, _ := newTestServer(t, quietConfig(), 10, 3)

	// httptest.NewRequest's default RemoteAddr is 192.0.2.1:1234 —
	// exactly the non-loopback peer the guard must refuse.
	for _, path := range []string{"/debug/traces", "/debug/traces/r1"} {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusForbidden {
			t.Fatalf("%s from non-loopback: status %d, want 403", path, w.Code)
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Code != ErrCodeForbidden {
			t.Fatalf("%s error envelope %+v (err %v), want code %q", path, er, err, ErrCodeForbidden)
		}
	}

	// The real loopback connection is allowed.
	if code := getJSON(t, hs.URL+"/debug/traces", nil); code != 200 {
		t.Fatalf("loopback /debug/traces status %d, want 200", code)
	}
}

// TestDegradedRequestRetainedAsErrorTrace: a 503 not_durable write
// produces a retained errored trace tagged degraded, and /metrics counts
// the 5xx against the endpoint — the incident leaves evidence behind.
func TestDegradedRequestRetainedAsErrorTrace(t *testing.T) {
	_, hs := startDegradable(t, &faultfs.Injector{FailWriteN: 2})

	if code := postJSON(t, hs.URL+"/v1/trees", InsertRequest{Tree: "f(a,b)"}, nil); code != 503 {
		t.Fatalf("insert with failing WAL: status %d, want 503", code)
	}

	var list DebugTracesResponse
	if code := getJSON(t, hs.URL+"/debug/traces?error=1", &list); code != 200 {
		t.Fatalf("debug/traces status %d", code)
	}
	if len(list.Traces) == 0 {
		t.Fatal("503 write left no errored trace in the recorder")
	}
	tr := list.Traces[0]
	if tr.Endpoint != "/v1/trees" || tr.Status != 503 {
		t.Fatalf("errored trace %+v, want /v1/trees status 503", tr)
	}
	if tr.Class != "error" {
		t.Fatalf("trace class %q, want error", tr.Class)
	}
	if !tr.Degraded {
		t.Fatal("retained trace not tagged degraded")
	}
	if v, ok := tr.Trace.Attrs["degraded"].(bool); !ok || !v {
		t.Fatalf("root span attrs %v missing degraded=true", tr.Trace.Attrs)
	}

	if got := scrapeJSON(t, hs.URL)[`treesim_http_errors_total{endpoint="/v1/trees"}`]; got != 1 {
		t.Fatalf("http_errors_total{/v1/trees} = %v, want 1", got)
	}
}

// TestDebugTracesHammer: query writers and debug readers race on the
// recorder through the full HTTP stack; run under -race this is the
// ring-buffer concurrency check at the integration level.
func TestDebugTracesHammer(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 30, 4)

	const writers, readers, perWorker = 4, 3, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := ts[(w*perWorker+i)%len(ts)]
				body := fmt.Sprintf(`{"tree":%q,"k":2}`, q.String())
				resp, err := http.Post(hs.URL+"/v1/knn", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Get(hs.URL + "/debug/traces")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				resp, err = http.Get(hs.URL + "/debug/slo")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	var list DebugTracesResponse
	if code := getJSON(t, hs.URL+"/debug/traces", &list); code != 200 {
		t.Fatalf("final list status %d", code)
	}
	if list.Stats.Offered < writers*perWorker {
		t.Fatalf("offered %d, want >= %d", list.Stats.Offered, writers*perWorker)
	}
	if list.Stats.Retained > list.Stats.Capacity {
		t.Fatalf("retained %d exceeds capacity %d", list.Stats.Retained, list.Stats.Capacity)
	}
}

// TestDebugTracesDisabled: a negative TraceRing disables the recorder and
// the endpoints answer 404 rather than serving an empty ring.
func TestDebugTracesDisabled(t *testing.T) {
	cfg := quietConfig()
	cfg.TraceRing = -1
	_, hs, _ := newTestServer(t, cfg, 10, 5)
	if code := getJSON(t, hs.URL+"/debug/traces", nil); code != 404 {
		t.Fatalf("disabled recorder list status %d, want 404", code)
	}
	if code := getJSON(t, hs.URL+"/debug/traces/r1", nil); code != 404 {
		t.Fatalf("disabled recorder get status %d, want 404", code)
	}
}
