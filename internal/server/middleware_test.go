package server

import (
	"bufio"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"treesim/internal/search"
)

// TestRequestIDAssigned: every response carries a generated X-Request-Id
// in the server's r%08x format, distinct across requests, and the access
// log records it.
func TestRequestIDAssigned(t *testing.T) {
	var buf syncBuffer
	cfg := Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))}
	_, hs, _ := newTestServer(t, cfg, 10, 60)

	idRe := regexp.MustCompile(`^r[0-9a-f]{8}$`)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		rid := resp.Header.Get("X-Request-Id")
		if !idRe.MatchString(rid) {
			t.Fatalf("generated request ID %q does not match r%%08x", rid)
		}
		if seen[rid] {
			t.Fatalf("request ID %q repeated", rid)
		}
		seen[rid] = true
	}

	// Each access-log record carries the ID of a response we saw.
	logged := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["msg"] == "request" {
			rid, _ := rec["request_id"].(string)
			logged[rid] = true
		}
	}
	for rid := range seen {
		if !logged[rid] {
			t.Errorf("request ID %q missing from the access log", rid)
		}
	}
}

// TestRequestIDPropagated: a caller-supplied X-Request-Id is preserved on
// the response and in the log instead of a generated one.
func TestRequestIDPropagated(t *testing.T) {
	var buf syncBuffer
	cfg := Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))}
	_, hs, _ := newTestServer(t, cfg, 10, 61)

	req, _ := http.NewRequest("GET", hs.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "upstream-77")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "upstream-77" {
		t.Errorf("response request ID %q, want the caller's upstream-77", got)
	}
	if !strings.Contains(buf.String(), `"request_id":"upstream-77"`) {
		t.Error("caller's request ID missing from the access log")
	}
}

// TestPanicRecovery: a panicking handler yields a 500 JSON error carrying
// the request ID, the connection survives, and the panic is both logged
// and counted as an endpoint error.
func TestPanicRecovery(t *testing.T) {
	var buf syncBuffer
	cfg := Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))}
	ix := search.NewIndex(testDataset(5, 62), search.NewBiBranch())
	s := New(ix, cfg)
	mux := http.NewServeMux()
	mux.Handle("GET /boom", s.instrument("/boom", false, func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	hs := httptest.NewServer(mux)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if e.Error.Code != ErrCodeInternal || e.Error.Message == "" || e.Error.RequestID == "" {
		t.Errorf("error body incomplete: %+v", e)
	}
	if e.Error.RequestID != resp.Header.Get("X-Request-Id") {
		t.Errorf("body request ID %q != header %q", e.Error.RequestID, resp.Header.Get("X-Request-Id"))
	}
	if !strings.Contains(buf.String(), "kaboom") {
		t.Error("panic value missing from the log")
	}
	if got, _ := gathered(t, s.metrics, "treesim_http_errors_total", "/boom"); got != 1 {
		t.Errorf("endpoint error count %v, want 1", got)
	}
}
