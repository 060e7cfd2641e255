package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"treesim/internal/obs"
	"treesim/internal/search"
)

// syncBuffer lets the server's logger and the test share a buffer under
// the race detector.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

func spanChild(sn obs.SpanSnapshot, name string) (obs.SpanSnapshot, bool) {
	for _, c := range sn.Children {
		if c.Name == name {
			return c, true
		}
	}
	return obs.SpanSnapshot{}, false
}

// TestKNNTrace: ?trace=1 returns the span tree inline — filter and refine
// stages under the request root, stage durations summing within the root,
// and the bounded, candidate and verified counts as attributes.
func TestKNNTrace(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 50, 50)

	var resp QueryResponse
	if code := postJSON(t, hs.URL+"/v1/knn?trace=1", KNNRequest{Tree: ts[1].String(), K: 3}, &resp); code != 200 {
		t.Fatalf("knn status %d", code)
	}
	if resp.Trace == nil {
		t.Fatal("no trace in response")
	}
	root := *resp.Trace
	if root.Name != "/v1/knn" {
		t.Errorf("root span %q, want /v1/knn", root.Name)
	}
	if rid, _ := root.Attrs["request_id"].(string); rid == "" {
		t.Errorf("root span has no request_id attr: %v", root.Attrs)
	}
	filter, ok := spanChild(root, "filter")
	if !ok {
		t.Fatalf("no filter span: %+v", root)
	}
	refine, ok := spanChild(root, "refine")
	if !ok {
		t.Fatalf("no refine span: %+v", root)
	}
	if filter.DurUS+refine.DurUS > root.DurUS {
		t.Errorf("stages %d+%dus exceed root %dus", filter.DurUS, refine.DurUS, root.DurUS)
	}
	// JSON numbers decode as float64.
	if c, _ := filter.Attrs["bounded"].(float64); c != 50 {
		t.Errorf("filter bounded %v, want 50", filter.Attrs["bounded"])
	}
	if c, _ := filter.Attrs["candidates"].(float64); int(c) != resp.Stats.Candidates {
		t.Errorf("filter candidates %v, stats say %d", filter.Attrs["candidates"], resp.Stats.Candidates)
	}
	if v, _ := refine.Attrs["verified"].(float64); int(v) != resp.Stats.Verified {
		t.Errorf("refine verified %v, stats say %d", refine.Attrs["verified"], resp.Stats.Verified)
	}

	// Without the parameter the field stays absent.
	var plain map[string]json.RawMessage
	postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[1].String(), K: 3}, &plain)
	if _, ok := plain["trace"]; ok {
		t.Error("untraced response carries a trace field")
	}
}

// TestBatchTrace: a traced batch shows one query[i] child per input tree,
// each with its own filter/refine breakdown.
func TestBatchTrace(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 30, 51)

	var resp BatchResponse
	req := BatchRequest{Op: "knn", Trees: []string{ts[0].String(), ts[1].String(), ts[2].String()}, K: 2}
	if code := postJSON(t, hs.URL+"/v1/batch?trace=1", req, &resp); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if resp.Trace == nil {
		t.Fatal("no trace in batch response")
	}
	for _, name := range []string{"query[0]", "query[1]", "query[2]"} {
		q, ok := spanChild(*resp.Trace, name)
		if !ok {
			t.Fatalf("no %s span: %+v", name, resp.Trace)
		}
		if _, ok := spanChild(q, "filter"); !ok {
			t.Errorf("%s has no filter child: %+v", name, q)
		}
	}
}

// TestRetainedRequestLogLine: a request the flight recorder retains as an
// error or slow trace writes its one "request" line at WARN with
// retained=<class> and threshold_us, and that line's trace_id opens the
// trace at /debug/traces/{id}; a fast request, and any request outside
// /v1/, logs at INFO with no retained attribute; with the recorder off
// nothing carries it.
func TestRetainedRequestLogLine(t *testing.T) {
	probe := func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("mode") {
		case "fail":
			writeError(w, http.StatusInternalServerError, ErrCodeInternal, "probe failure", requestID(w))
			return
		case "slow":
			time.Sleep(50 * time.Millisecond)
		}
		writeJSON(w, http.StatusOK, struct{}{})
	}
	start := func(ring int) (string, *syncBuffer) {
		buf := &syncBuffer{}
		cfg := Config{Logger: slog.New(slog.NewJSONHandler(buf, nil)), TraceRing: ring}
		s := New(search.NewIndex(testDataset(5, 53), search.NewBiBranch()), cfg)
		mux := http.NewServeMux()
		mux.Handle("/", s.Handler())
		mux.Handle("GET /v1/probe", s.instrument("/v1/probe", true, probe))
		hs := httptest.NewServer(mux)
		t.Cleanup(hs.Close)
		return hs.URL, buf
	}
	get := func(url string, want int) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, want)
		}
		return resp.Header.Get("X-Request-Id")
	}
	// The recorder classes nothing slow before its first threshold
	// recompute at the 64th offer, which takes the largest of those 64
	// durations: an error first, 62 fast requests, then one 50ms request
	// that is that largest.
	drive := func(base string) (errRID, slowRID string, fast []string) {
		errRID = get(base+"/v1/probe?mode=fail", http.StatusInternalServerError)
		for i := 0; i < 62; i++ {
			fast = append(fast, get(base+"/v1/probe", http.StatusOK))
		}
		slowRID = get(base+"/v1/probe?mode=slow", http.StatusOK)
		return errRID, slowRID, append(fast, get(base+"/healthz", http.StatusOK))
	}
	requestLines := func(buf *syncBuffer) map[string][]map[string]any {
		t.Helper()
		lines := map[string][]map[string]any{}
		sc := bufio.NewScanner(strings.NewReader(buf.String()))
		for sc.Scan() {
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("log line %q: %v", sc.Text(), err)
			}
			if rec["msg"] == "request" {
				rid, _ := rec["request_id"].(string)
				lines[rid] = append(lines[rid], rec)
			}
		}
		return lines
	}

	base, buf := start(0)
	errRID, slowRID, fast := drive(base)
	lines := requestLines(buf)
	for rid, class := range map[string]string{errRID: "error", slowRID: "slow"} {
		if len(lines[rid]) != 1 {
			t.Fatalf("%s request %s: %d request lines, want 1", class, rid, len(lines[rid]))
		}
		rec := lines[rid][0]
		if rec["level"] != "WARN" || rec["retained"] != class {
			t.Errorf("%s request line: level %v retained %v, want WARN %s", class, rec["level"], rec["retained"], class)
		}
		if _, ok := rec["threshold_us"].(float64); !ok {
			t.Errorf("%s request line lacks threshold_us: %v", class, rec)
		}
		traceID, _ := rec["trace_id"].(string)
		var tr obs.RetainedTrace
		if code := getJSON(t, base+"/debug/traces/"+traceID, &tr); code != 200 {
			t.Fatalf("%s request's trace_id %q: /debug/traces status %d", class, traceID, code)
		}
		if tr.RequestID != rid || string(tr.Class) != class {
			t.Errorf("trace %s: request %s class %s, want %s %s", traceID, tr.RequestID, tr.Class, rid, class)
		}
	}
	for _, rid := range fast {
		if len(lines[rid]) != 1 {
			t.Fatalf("fast request %s: %d request lines, want 1", rid, len(lines[rid]))
		}
		if rec := lines[rid][0]; rec["level"] != "INFO" || rec["retained"] != nil {
			t.Errorf("fast request line: level %v retained %v, want INFO and none", rec["level"], rec["retained"])
		}
	}

	base, buf = start(-1)
	drive(base)
	if strings.Contains(buf.String(), `"retained"`) || strings.Contains(buf.String(), `"level":"WARN"`) {
		t.Errorf("recorder off, yet a line names a retained class: %s", buf.String())
	}
}
