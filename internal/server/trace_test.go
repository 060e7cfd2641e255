package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"treesim/internal/obs"
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

// TestSlowQueryLog: with the threshold at zero every query is slow; the
// log gets one structured record carrying the request ID and the span
// tree with its stage breakdown.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	cfg := Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))}
	threshold := time.Duration(0)
	cfg.SlowQuery = &threshold
	_, hs, ts := newTestServer(t, cfg, 30, 52)

	var resp QueryResponse
	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[4].String(), K: 2}, &resp); code != 200 {
		t.Fatalf("knn status %d", code)
	}

	var slow []map[string]any
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		if rec["msg"] == "slow query" {
			slow = append(slow, rec)
		}
	}
	if len(slow) != 1 {
		t.Fatalf("%d slow-query records, want 1 (log: %s)", len(slow), buf.String())
	}
	rec := slow[0]
	rid, _ := rec["request_id"].(string)
	if rid == "" {
		t.Errorf("slow-query record lacks request_id: %v", rec)
	}
	tree, _ := rec["trace_tree"].(string)
	if !strings.Contains(tree, "filter") || !strings.Contains(tree, "refine") {
		t.Errorf("trace_tree is not the rendered span tree: %q", tree)
	}
	trace, ok := rec["trace"].(map[string]any)
	if !ok {
		t.Fatalf("slow-query record lacks a structured trace: %v", rec)
	}
	filter, ok := trace["filter"].(map[string]any)
	if !ok {
		t.Fatalf("trace has no filter group: %v", trace)
	}
	if _, ok := filter["dur_us"]; !ok {
		t.Errorf("filter group lacks dur_us: %v", filter)
	}
	if trace["request_id"] != rid {
		t.Errorf("trace request_id %v != record request_id %q", trace["request_id"], rid)
	}

	// A non-query endpoint never triggers the slow log, even at zero.
	before := strings.Count(buf.String(), "slow query")
	if code := getJSON(t, hs.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if after := strings.Count(buf.String(), "slow query"); after != before {
		t.Error("healthz triggered the slow-query log")
	}
}

// TestSlowQueryDisabled: the nil default logs nothing however slow.
func TestSlowQueryDisabled(t *testing.T) {
	var buf syncBuffer
	cfg := Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))}
	_, hs, ts := newTestServer(t, cfg, 20, 53)
	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[0].String(), K: 2}, nil); code != 200 {
		t.Fatalf("knn status %d", code)
	}
	if strings.Contains(buf.String(), "slow query") {
		t.Error("slow-query log fired with SlowQuery unset")
	}
}
