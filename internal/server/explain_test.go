package server

import (
	"bufio"
	"encoding/json"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"treesim/internal/qlog"
)

// TestExplainKNN: ?explain=1 returns the query's filter-quality analysis —
// candidate count, false positives, bound distribution and tightness
// samples respecting the proven factor bound.
func TestExplainKNN(t *testing.T) {
	s, hs, ts := newTestServer(t, quietConfig(), 60, 60)

	var resp QueryResponse
	if code := postJSON(t, hs.URL+"/v1/knn?explain=1", KNNRequest{Tree: ts[7].String(), K: 5}, &resp); code != 200 {
		t.Fatalf("knn status %d", code)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("no explain in response")
	}
	if ex.Op != "knn" || ex.K != 5 {
		t.Errorf("explain op=%q k=%d, want knn/5", ex.Op, ex.K)
	}
	if ex.Filter != s.ix.Filter().Name() {
		t.Errorf("explain filter %q, want %q", ex.Filter, s.ix.Filter().Name())
	}
	if ex.Dataset != 60 {
		t.Errorf("explain dataset %d, want 60", ex.Dataset)
	}
	if ex.Candidates <= 0 || ex.Candidates > 60 {
		t.Errorf("explain candidates %d outside (0,60]", ex.Candidates)
	}
	if ex.Verified < ex.Results {
		t.Errorf("verified %d < results %d", ex.Verified, ex.Results)
	}
	if ex.FalsePositives != ex.Verified-ex.Results {
		t.Errorf("false positives %d != verified-results %d", ex.FalsePositives, ex.Verified-ex.Results)
	}
	if ex.Bounds.Computed != 60 {
		t.Errorf("bounds computed %d, want 60", ex.Bounds.Computed)
	}
	if ex.Bounds.Min > ex.Bounds.P50 || ex.Bounds.P50 > ex.Bounds.P99 || ex.Bounds.P99 > ex.Bounds.Max {
		t.Errorf("bound distribution not monotone: %+v", ex.Bounds)
	}
	// A non-trivial index yields at least one verified pair at exact
	// distance > 0, so the BiBranch filter must produce tightness samples,
	// each within the proven Factor(q) limit.
	if len(ex.Tightness) == 0 {
		t.Fatal("no tightness samples on a 60-tree index")
	}
	if ex.TightnessLimit != 5 {
		t.Errorf("tightness limit %d, want 5 (q=2)", ex.TightnessLimit)
	}
	for _, smp := range ex.Tightness {
		if smp.Exact <= 0 || smp.BDist < 0 {
			t.Errorf("degenerate sample %+v", smp)
		}
		if smp.Ratio > float64(ex.TightnessLimit) {
			t.Errorf("sample ratio %.3f exceeds proven limit %d", smp.Ratio, ex.TightnessLimit)
		}
	}
	// Stats and explain agree on the shared counters.
	if resp.Stats.Candidates != ex.Candidates || resp.Stats.FalsePositives != ex.FalsePositives {
		t.Errorf("stats %+v disagree with explain %+v", resp.Stats, ex)
	}

	// Without the parameter the field stays absent.
	var plain map[string]json.RawMessage
	postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[7].String(), K: 5}, &plain)
	if _, ok := plain["explain"]; ok {
		t.Error("unexplained response carries an explain field")
	}
}

// TestExplainRange: same contract on the range endpoint.
func TestExplainRange(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 50, 61)
	var resp QueryResponse
	if code := postJSON(t, hs.URL+"/v1/range?explain=1", RangeRequest{Tree: ts[3].String(), Tau: 4}, &resp); code != 200 {
		t.Fatalf("range status %d", code)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("no explain in response")
	}
	if ex.Op != "range" || ex.Tau != 4 {
		t.Errorf("explain op=%q tau=%d, want range/4", ex.Op, ex.Tau)
	}
	if ex.Candidates < ex.Verified {
		t.Errorf("candidates %d < verified %d", ex.Candidates, ex.Verified)
	}
	if ex.FalsePositives != ex.Verified-ex.Results {
		t.Errorf("false positives %d != verified-results %d", ex.FalsePositives, ex.Verified-ex.Results)
	}
	if ex.Bounds.Computed == 0 {
		t.Error("range explain computed no bounds")
	}
}

// TestSlowQueryExplain: a slow-query record carries the EXPLAIN analysis
// even when the client did not ask for it.
func TestSlowQueryExplain(t *testing.T) {
	var buf syncBuffer
	cfg := Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))}
	threshold := time.Duration(0)
	cfg.SlowQuery = &threshold
	_, hs, ts := newTestServer(t, cfg, 40, 62)

	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[2].String(), K: 3}, nil); code != 200 {
		t.Fatalf("knn status %d", code)
	}
	var rec map[string]any
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var r map[string]any
		if json.Unmarshal(sc.Bytes(), &r) == nil && r["msg"] == "slow query" {
			rec = r
		}
	}
	if rec == nil {
		t.Fatalf("no slow-query record in log: %s", buf.String())
	}
	exm, ok := rec["explain"].(map[string]any)
	if !ok {
		t.Fatalf("slow-query record lacks explain: %v", rec)
	}
	if op, _ := exm["op"].(string); op != "knn" {
		t.Errorf("logged explain op %v, want knn", exm["op"])
	}
	if c, _ := exm["candidates"].(float64); c <= 0 {
		t.Errorf("logged explain candidates %v, want > 0", exm["candidates"])
	}
}

// TestQueryLogRecording: with Config.QueryLog set, served knn, range and
// batch inner queries land in the workload log as replayable records.
func TestQueryLogRecording(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	w, err := qlog.Open(path, qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig()
	cfg.QueryLog = w
	_, hs, ts := newTestServer(t, cfg, 30, 63)

	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[0].String(), K: 2}, nil); code != 200 {
		t.Fatalf("knn status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/range", RangeRequest{Tree: ts[1].String(), Tau: 2}, nil); code != 200 {
		t.Fatalf("range status %d", code)
	}
	batch := BatchRequest{Op: "knn", Trees: []string{ts[2].String(), ts[3].String()}, K: 1}
	if code := postJSON(t, hs.URL+"/v1/batch", batch, nil); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := qlog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d unreadable records", skipped)
	}
	if len(recs) != 4 {
		t.Fatalf("recorded %d queries, want 4 (knn + range + 2 batch)", len(recs))
	}
	ops := map[string]int{}
	for _, r := range recs {
		ops[r.Op]++
		if r.Tree == "" || r.Filter == "" {
			t.Errorf("incomplete record %+v", r)
		}
		if r.Stats.Dataset != 30 {
			t.Errorf("record dataset %d, want 30", r.Stats.Dataset)
		}
		if r.Stats.Candidates <= 0 {
			t.Errorf("record candidates %d, want > 0", r.Stats.Candidates)
		}
	}
	if ops["knn"] != 3 || ops["range"] != 1 {
		t.Fatalf("op mix %v, want knn:3 range:1", ops)
	}
}
