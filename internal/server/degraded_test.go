package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"treesim/internal/faultfs"
	"treesim/internal/search"
)

// These tests pin the degraded read-only contract: a durable-write fault
// keeps the node serving queries, fast-fails writes with a retryable
// envelope, reports the state on /readyz and /metrics, and heals itself
// once the disk recovers.

// startDegradable starts a durable server whose filesystem is the given
// injector, with a slow prober so tests observe the degraded window.
func startDegradable(t *testing.T, inj *faultfs.Injector) (*Server, *httptest.Server) {
	t.Helper()
	cfg := durableConfig(t.TempDir())
	cfg.DegradedProbeInterval = time.Minute // effectively "no auto-heal during the test"
	ix := search.NewIndex(testDataset(10, 1), search.NewBiBranch())
	s := New(ix, cfg)
	s.fs = inj
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, hs
}

// TestDegradedServesReadsRejectsWrites: after a WAL append fault, queries
// keep answering while inserts and deletes get 503 + not_durable +
// Retry-After — the delete without ever touching the WAL again.
func TestDegradedServesReadsRejectsWrites(t *testing.T) {
	// Write 1 is the WAL magic; write 2 (the first append) fails and all
	// later writes succeed — so any 503 after the first proves the
	// fast-path, not a fresh disk error.
	s, hs := startDegradable(t, &faultfs.Injector{FailWriteN: 2})

	if code := postJSON(t, hs.URL+"/v1/trees", InsertRequest{Tree: "f(a,b)"}, nil); code != 503 {
		t.Fatalf("insert with failing WAL: status %d, want 503", code)
	}

	// Writes are refused with the retryable envelope.
	body, _ := json.Marshal(InsertRequest{Tree: "g(c,d)"})
	resp, err := http.Post(hs.URL+"/v1/trees", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("degraded insert: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded insert: no Retry-After header")
	}
	var envelope ErrorResponse
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatalf("degraded insert body %q: %v", raw, err)
	}
	if envelope.Error.Code != ErrCodeNotDurable {
		t.Fatalf("degraded insert code %q, want %q", envelope.Error.Code, ErrCodeNotDurable)
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/trees/3", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 503 {
		t.Fatalf("degraded delete: status %d, want 503", dresp.StatusCode)
	}

	// Queries still serve, and nothing leaked into the index.
	var qr QueryResponse
	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: "a(b,c)", K: 3}, &qr); code != 200 {
		t.Fatalf("degraded KNN: status %d, want 200", code)
	}
	if len(qr.Results) != 3 {
		t.Fatalf("degraded KNN returned %d results, want 3", len(qr.Results))
	}
	if got := s.ix.Size(); got != 10 {
		t.Fatalf("index size %d after refused writes, want 10", got)
	}
}

// TestDegradedObservability: /readyz reports the state (still 200 — the
// node serves reads) and /metrics carries the gauge, reason and counter
// in both JSON and Prometheus form.
func TestDegradedObservability(t *testing.T) {
	s, hs := startDegradable(t, &faultfs.Injector{FailWriteN: 2})
	if code := postJSON(t, hs.URL+"/v1/trees", InsertRequest{Tree: "f(a,b)"}, nil); code != 503 {
		t.Fatalf("insert with failing WAL: status %d, want 503", code)
	}

	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("degraded /readyz status %d, want 200 (reads still serve)", resp.StatusCode)
	}
	if ready.Status != "degraded" || ready.DegradedReason != "wal_append" {
		t.Fatalf("degraded /readyz = %+v, want degraded/wal_append", ready)
	}

	doc := scrapeJSON(t, hs.URL)
	if doc[`treesim_degraded{reason="wal_append"}`] != 1 || doc["treesim_degraded_total"] != 1 {
		t.Fatalf("JSON metrics degraded{reason=wal_append}=%v total=%v, want 1/1",
			doc[`treesim_degraded{reason="wal_append"}`], doc["treesim_degraded_total"])
	}
	if doc["treesim_wal_segments"] < 1 {
		t.Fatalf("metrics wal_segments = %v, want >= 1", doc["treesim_wal_segments"])
	}

	presp, err := http.Get(hs.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	for _, want := range []string{
		`treesim_degraded{reason="wal_append"} 1`,
		"treesim_degraded_total 1",
		"treesim_wal_segments 1",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prom output missing %q:\n%s", want, prom)
		}
	}
	_ = s
}
