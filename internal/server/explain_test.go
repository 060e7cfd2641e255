package server

import (
	"encoding/json"
	"path/filepath"
	"testing"

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

// TestRetainedTraceCarriesExplain: the EXPLAIN record a ?explain=1 query
// computed rides into the flight recorder's retained trace, so
// /debug/traces/{id} shows the filter's funnel next to the span tree; a
// query without ?explain=1 computes none.
func TestRetainedTraceCarriesExplain(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 40, 62)

	var resp QueryResponse
	if code := postJSON(t, hs.URL+"/v1/knn?explain=1", KNNRequest{Tree: ts[2].String(), K: 3}, &resp); code != 200 {
		t.Fatalf("knn status %d", code)
	}
	var traces DebugTracesResponse
	if code := getJSON(t, hs.URL+"/debug/traces", &traces); code != 200 || len(traces.Traces) != 1 {
		t.Fatalf("debug/traces status %d, %d traces; want the one query retained", code, len(traces.Traces))
	}
	var rec map[string]any
	if code := getJSON(t, hs.URL+"/debug/traces/"+traces.Traces[0].RequestID, &rec); code != 200 {
		t.Fatalf("debug/traces/{id} status %d", code)
	}
	exm, ok := rec["explain"].(map[string]any)
	if !ok {
		t.Fatalf("retained trace lacks explain: %v", rec)
	}
	if op, _ := exm["op"].(string); op != "knn" {
		t.Errorf("retained explain op %v, want knn", exm["op"])
	}
	if c, _ := exm["candidates"].(float64); int(c) != resp.Explain.Candidates || c <= 0 {
		t.Errorf("retained explain candidates %v, response's %d", exm["candidates"], resp.Explain.Candidates)
	}

	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[3].String(), K: 3}, nil); code != 200 {
		t.Fatalf("knn status %d", code)
	}
	var latest DebugTracesResponse
	if code := getJSON(t, hs.URL+"/debug/traces?limit=1", &latest); code != 200 || len(latest.Traces) != 1 {
		t.Fatalf("debug/traces status %d, %d traces", code, len(latest.Traces))
	}
	if latest.Traces[0].Explain != nil {
		t.Errorf("a query without ?explain=1 retained an EXPLAIN record: %v", latest.Traces[0].Explain)
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
