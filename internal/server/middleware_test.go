package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"treesim/internal/datagen"
	"treesim/internal/obs"
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

// TestRequestIDPropagated: a caller-supplied X-Request-Id of at most 128
// bytes of printable ASCII is preserved on the response, in the log and in
// the retained trace; an oversized one or one with a space or control
// byte is replaced by a minted ID everywhere, so a client cannot pin
// arbitrary bytes in the flight recorder's ring.
func TestRequestIDPropagated(t *testing.T) {
	minted := regexp.MustCompile(`^r[0-9a-f]{8}$`)
	body, _ := json.Marshal(KNNRequest{Tree: "a(b,c)", K: 1})
	for _, c := range []struct {
		name, id string
		kept     bool
	}{
		{"plain", "upstream-77", true},
		{"at the bound", strings.Repeat("x", maxRequestIDLen), true},
		{"512 KiB", strings.Repeat("x", 512<<10), false},
		{"one past the bound", strings.Repeat("x", maxRequestIDLen+1), false},
		{"space", "upstream 77", false},
		{"control byte", "upstream\x0177", false},
		{"non-ASCII", "upstream-\u00e977", false},
	} {
		var buf syncBuffer
		cfg := Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))}
		s := New(search.NewIndex(testDataset(10, 61), search.NewBiBranch()), cfg)
		// Straight into the handler: a real client refuses to send a
		// control byte in a header, a raw connection does not.
		req := httptest.NewRequest(http.MethodPost, "/v1/knn", bytes.NewReader(body))
		req.Header.Set("X-Request-Id", c.id)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: knn status %d", c.name, rec.Code)
		}
		got := rec.Header().Get("X-Request-Id")
		if c.kept && got != c.id {
			t.Errorf("%s: response request ID %q, want the caller's", c.name, got)
		}
		if !c.kept && !minted.MatchString(got) {
			t.Errorf("%s: response request ID %.40q, want a minted r%%08x", c.name, got)
		}
		traces := s.recorder.List(obs.TraceFilter{})
		if len(traces) != 1 || traces[0].RequestID != got {
			t.Errorf("%s: retained traces %d, want one under the response's ID", c.name, len(traces))
		}
		logged, _ := json.Marshal(got)
		if !strings.Contains(buf.String(), `"request_id":`+string(logged)) {
			t.Errorf("%s: response request ID missing from the access log", c.name)
		}
		if !c.kept && strings.Contains(buf.String(), c.id) {
			t.Errorf("%s: rejected request ID reached the log", c.name)
		}
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

// TestSlowBodyReleasesSlot: a client that declares a body and sends one
// byte of it holds its admission slot only until QueryTimeout, not for as
// long as it keeps the connection open, and is answered then.
func TestSlowBodyReleasesSlot(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxInFlight = 1
	cfg.QueryTimeout = 200 * time.Millisecond
	_, hs, ts := newTestServer(t, cfg, 20, 61)

	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/knn HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{")

	knn := KNNRequest{Tree: ts[0].String(), K: 1}
	// Wait for the slow request to take the one slot...
	deadline := time.Now().Add(5 * time.Second)
	for postJSON(t, hs.URL+"/v1/knn", knn, nil) != http.StatusTooManyRequests {
		if time.Now().After(deadline) {
			t.Fatal("the slow request never took the slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...and for its read deadline to give it back, while the connection
	// stays open.
	held := time.Now()
	for {
		code := postJSON(t, hs.URL+"/v1/knn", knn, nil)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("knn beside the slow body: status %d", code)
		}
		if time.Since(held) > 10*cfg.QueryTimeout {
			t.Fatalf("the slow body still holds the slot %v after it was taken", time.Since(held))
		}
		time.Sleep(5 * time.Millisecond)
	}
	conn.SetReadDeadline(time.Now().Add(10 * cfg.QueryTimeout))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("the slow client got no answer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !resp.Close {
		t.Fatalf("the slow client got status %d, close %v; want 400 and the connection closed", resp.StatusCode, resp.Close)
	}
}

// TestSlowQueryTimesOutWith504: a query that outlives a QueryTimeout long
// enough for its body to be read answers 504, not 499: the read deadline
// that bounded the body does not cancel the query.
func TestSlowQueryTimesOutWith504(t *testing.T) {
	cfg := quietConfig()
	cfg.QueryTimeout = 100 * time.Millisecond
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 120, SizeStd: 10, Labels: 5, Decay: 0.1}
	ts := datagen.New(spec, 62).Dataset(300, 5)
	hs := httptest.NewServer(New(search.NewIndex(ts, search.NewBiBranch()), cfg).Handler())
	defer hs.Close()

	// Every tree verified, MaxBatch times over: far past the timeout.
	req := BatchRequest{Op: "knn", K: len(ts)}
	for range 64 {
		req.Trees = append(req.Trees, ts[len(req.Trees)].String())
	}
	var out ErrorResponse
	if code := postJSON(t, hs.URL+"/v1/batch", req, &out); code != http.StatusGatewayTimeout {
		t.Fatalf("slow batch: status %d (%+v), want 504", code, out)
	}
}
