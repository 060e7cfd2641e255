package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"treesim/internal/datagen"
	"treesim/internal/search"
	"treesim/internal/tree"
)

func testDataset(n int, seed int64) []*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 14, SizeStd: 4, Labels: 5, Decay: 0.1}
	return datagen.New(spec, seed).Dataset(n, 5)
}

func quietConfig() Config {
	return Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// newTestServer builds a server over a fresh dataset and wraps its handler
// in an httptest server.
func newTestServer(t *testing.T, cfg Config, n int, seed int64) (*Server, *httptest.Server, []*tree.Tree) {
	t.Helper()
	ts := testDataset(n, seed)
	ix := search.NewIndex(ts, search.NewBiBranch())
	s := New(ix, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, ts
}

// postJSON posts v and decodes the response body into out (when non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		raw, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(raw, out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("decoding %s: %v (body %q)", url, err, raw)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestKNNRangeEquivalence: the HTTP answers are bit-identical to direct
// search.Index calls — the acceptance criterion of the server subsystem.
func TestKNNRangeEquivalence(t *testing.T) {
	s, hs, ts := newTestServer(t, quietConfig(), 60, 1)
	queries := []*tree.Tree{ts[0], ts[33], testDataset(1, 2)[0]}
	for _, q := range queries {
		for _, k := range []int{1, 5} {
			want, _, _ := s.ix.KNN(context.Background(), q, k)
			var got QueryResponse
			if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: q.String(), K: k}, &got); code != 200 {
				t.Fatalf("knn status %d", code)
			}
			if len(got.Results) != len(want) {
				t.Fatalf("knn k=%d: %d results, want %d", k, len(got.Results), len(want))
			}
			for i, r := range want {
				if got.Results[i].ID != r.ID || got.Results[i].Dist != r.Dist {
					t.Fatalf("knn k=%d result %d: got %+v, want %+v", k, i, got.Results[i], r)
				}
				if got.Results[i].Tree != s.ix.Tree(r.ID).String() {
					t.Fatalf("knn result %d carries wrong tree text", i)
				}
			}
			if got.Stats.Dataset != len(ts) {
				t.Fatalf("stats dataset %d, want %d", got.Stats.Dataset, len(ts))
			}
		}
		for _, tau := range []int{0, 3} {
			want, _, _ := s.ix.Range(context.Background(), q, tau)
			var got QueryResponse
			if code := postJSON(t, hs.URL+"/v1/range", RangeRequest{Tree: q.String(), Tau: tau}, &got); code != 200 {
				t.Fatalf("range status %d", code)
			}
			if len(got.Results) != len(want) {
				t.Fatalf("range tau=%d: %d results, want %d", tau, len(got.Results), len(want))
			}
			for i, r := range want {
				if got.Results[i].ID != r.ID || got.Results[i].Dist != r.Dist {
					t.Fatalf("range result %d: got %+v, want %+v", i, got.Results[i], r)
				}
			}
		}
	}
}

// TestBatchEquivalence: /v1/batch answers match per-query /v1/knn.
func TestBatchEquivalence(t *testing.T) {
	s, hs, ts := newTestServer(t, quietConfig(), 50, 3)
	trees := []string{ts[1].String(), ts[20].String(), ts[49].String()}
	var batch BatchResponse
	if code := postJSON(t, hs.URL+"/v1/batch", BatchRequest{Op: "knn", Trees: trees, K: 3}, &batch); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if len(batch.Queries) != len(trees) {
		t.Fatalf("batch answered %d queries, want %d", len(batch.Queries), len(trees))
	}
	for i, ql := range trees {
		q := tree.MustParse(ql)
		want, _, _ := s.ix.KNN(context.Background(), q, 3)
		got := batch.Queries[i].Results
		if len(got) != len(want) {
			t.Fatalf("batch query %d: %d results, want %d", i, len(got), len(want))
		}
		for j, r := range want {
			if got[j].ID != r.ID || got[j].Dist != r.Dist {
				t.Fatalf("batch query %d result %d: got %+v, want %+v", i, j, got[j], r)
			}
		}
	}

	var rbatch BatchResponse
	if code := postJSON(t, hs.URL+"/v1/batch", BatchRequest{Op: "range", Trees: trees, Tau: 2}, &rbatch); code != 200 {
		t.Fatalf("range batch status %d", code)
	}
	for i, ql := range trees {
		want, _, _ := s.ix.Range(context.Background(), tree.MustParse(ql), 2)
		if len(rbatch.Queries[i].Results) != len(want) {
			t.Fatalf("range batch query %d: %d results, want %d", i, len(rbatch.Queries[i].Results), len(want))
		}
	}
}

// TestDistEndpoint: ad-hoc distance matches the library and the reported
// lower bound is a true lower bound.
func TestDistEndpoint(t *testing.T) {
	_, hs, _ := newTestServer(t, quietConfig(), 10, 4)
	var resp DistResponse
	req := DistRequest{T1: "a(b(c,d),b(c,d),e)", T2: "a(b(c,d,b(e)),c,d,e)"}
	if code := postJSON(t, hs.URL+"/v1/dist", req, &resp); code != 200 {
		t.Fatalf("dist status %d", code)
	}
	if resp.EditDistance != 3 {
		t.Fatalf("edit distance %d, want 3 (the paper's Fig. 1 pair)", resp.EditDistance)
	}
	if resp.LowerBound > resp.EditDistance || resp.LowerBound < 0 {
		t.Fatalf("lower bound %d not in [0,%d]", resp.LowerBound, resp.EditDistance)
	}
}

// TestDistCellCap: a pair whose DP tables would pass maxDistCells is 400
// invalid_argument before any work — two 4 000-node chains, which would
// take 300 MB — while a pair under the cap still gets its distance and a
// lower bound.
func TestDistCellCap(t *testing.T) {
	_, hs, _ := newTestServer(t, quietConfig(), 10, 4)
	chain := func(label string, n int) string {
		return strings.Repeat(label+"(", n-1) + label + strings.Repeat(")", n-1)
	}
	var e ErrorResponse
	big := DistRequest{T1: chain("a", 4000), T2: chain("b", 4000)}
	if code := postJSON(t, hs.URL+"/v1/dist", big, &e); code != http.StatusBadRequest || e.Error.Code != ErrCodeInvalidArgument {
		t.Fatalf("4000-node chains: status %d, code %q; want 400 %q", code, e.Error.Code, ErrCodeInvalidArgument)
	}
	var resp DistResponse
	small := DistRequest{T1: chain("a", 1000), T2: chain("b", 1000)}
	if code := postJSON(t, hs.URL+"/v1/dist", small, &resp); code != http.StatusOK {
		t.Fatalf("1000-node chains: status %d", code)
	}
	if resp.EditDistance != 1000 || resp.LowerBound < 0 || resp.LowerBound > resp.EditDistance {
		t.Fatalf("1000-node chains: distance %d, lower bound %d; want 1000 and a bound in [0, 1000]", resp.EditDistance, resp.LowerBound)
	}
}

// TestInsertAndGet: inserts are visible to immediate queries and tree
// lookup; bad ids are 400/404.
func TestInsertAndGet(t *testing.T) {
	s, hs, _ := newTestServer(t, quietConfig(), 20, 5)
	novel := "zz(yy(xx),ww,vv(uu,tt))"
	var ins InsertResponse
	if code := postJSON(t, hs.URL+"/v1/trees", InsertRequest{Tree: novel}, &ins); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	if ins.ID != 20 || ins.Size != 21 {
		t.Fatalf("insert response %+v, want id=20 size=21", ins)
	}
	var knn QueryResponse
	postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: novel, K: 1}, &knn)
	if len(knn.Results) != 1 || knn.Results[0].ID != ins.ID || knn.Results[0].Dist != 0 {
		t.Fatalf("inserted tree not its own nearest neighbor: %+v", knn.Results)
	}
	var got TreeResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/trees/%d", hs.URL, ins.ID), &got); code != 200 {
		t.Fatalf("get tree status %d", code)
	}
	if got.Tree != tree.MustParse(novel).String() {
		t.Fatalf("got tree %q, want %q", got.Tree, novel)
	}
	if code := getJSON(t, hs.URL+"/v1/trees/999", nil); code != 404 {
		t.Fatalf("out-of-range tree id: status %d, want 404", code)
	}
	if code := getJSON(t, hs.URL+"/v1/trees/abc", nil); code != 400 {
		t.Fatalf("non-integer tree id: status %d, want 400", code)
	}
	if s.ix.Size() != 21 {
		t.Fatalf("index size %d after insert, want 21", s.ix.Size())
	}
}

// TestDeleteEndpoint: DELETE tombstones a tree, the id 404s afterwards,
// queries stop returning it, and unknown or double deletes answer
// not_found through the stable error envelope.
func TestDeleteEndpoint(t *testing.T) {
	s, hs, ts := newTestServer(t, quietConfig(), 20, 8)
	ix := s.ix
	target := ts[5]
	del := func(id string) (int, ErrorResponse, DeleteResponse) {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/trees/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var e ErrorResponse
		var d DeleteResponse
		if resp.StatusCode == 200 {
			_ = json.Unmarshal(raw, &d)
		} else {
			_ = json.Unmarshal(raw, &e)
		}
		return resp.StatusCode, e, d
	}
	code, _, d := del("5")
	if code != 200 || d.ID != 5 || d.Live != 19 {
		t.Fatalf("delete: status %d, resp %+v", code, d)
	}
	if getJSON(t, hs.URL+"/v1/trees/5", nil) != 404 {
		t.Fatal("deleted tree still fetchable")
	}
	var knn QueryResponse
	postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: target.String(), K: 3}, &knn)
	for _, r := range knn.Results {
		if r.ID == 5 {
			t.Fatalf("deleted tree in KNN results: %+v", knn.Results)
		}
	}
	if code, e, _ := del("5"); code != 404 || e.Error.Code != ErrCodeNotFound {
		t.Fatalf("double delete: status %d code %q, want 404 %q", code, e.Error.Code, ErrCodeNotFound)
	}
	if code, e, _ := del("999"); code != 404 || e.Error.Code != ErrCodeNotFound {
		t.Fatalf("unknown id delete: status %d code %q", code, e.Error.Code)
	}
	if code, e, _ := del("abc"); code != 400 || e.Error.Code != ErrCodeInvalidArgument {
		t.Fatalf("non-integer id delete: status %d code %q", code, e.Error.Code)
	}
	if ix.Size() != 20 || ix.Live() != 19 {
		t.Fatalf("after delete: size %d live %d, want 20/19", ix.Size(), ix.Live())
	}
}

// TestBadRequests: every malformed input is a 4xx with a JSON error body,
// never a 5xx or a panic.
func TestBadRequests(t *testing.T) {
	_, hs, _ := newTestServer(t, quietConfig(), 10, 7)
	cases := []struct {
		path string
		body string
		want int
		code string
	}{
		{"/v1/knn", `{bad json`, 400, ErrCodeInvalidRequest},
		{"/v1/range", `{bad json`, 400, ErrCodeInvalidRequest},
		{"/v1/dist", `{bad json`, 400, ErrCodeInvalidRequest},
		{"/v1/batch", `{bad json`, 400, ErrCodeInvalidRequest},
		{"/v1/trees", `{bad json`, 400, ErrCodeInvalidRequest},
		{"/v1/knn", `{"tree":`, 400, ErrCodeInvalidRequest},
		{"/v1/knn", `{"tree":"a(b","k":3}`, 400, ErrCodeInvalidTree},
		{"/v1/knn", `{"tree":"a(b)","k":0}`, 400, ErrCodeInvalidArgument},
		{"/v1/knn", `{"tree":"","k":3}`, 400, ErrCodeInvalidTree},
		{"/v1/range", `{"tree":"a(b)","tau":-1}`, 400, ErrCodeInvalidArgument},
		{"/v1/dist", `{"t1":"a","t2":"b("}`, 400, ErrCodeInvalidTree},
		{"/v1/batch", `{"op":"nope","trees":["a"],"k":1}`, 400, ErrCodeInvalidArgument},
		{"/v1/batch", `{"op":"knn","trees":[],"k":1}`, 400, ErrCodeInvalidArgument},
		{"/v1/batch", `{"op":"knn","trees":["a","b("],"k":1}`, 400, ErrCodeInvalidTree},
		{"/v1/trees", `{"tree":"x(y"}`, 400, ErrCodeInvalidTree},
	}
	for _, c := range cases {
		resp, err := http.Post(hs.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %q: status %d, want %d", c.path, c.body, resp.StatusCode, c.want)
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Error.Message == "" {
			t.Errorf("%s %q: error body %q not a JSON error", c.path, c.body, raw)
		}
		if e.Error.Code != c.code {
			t.Errorf("%s %q: error code %q, want %q", c.path, c.body, e.Error.Code, c.code)
		}
	}
	// Oversized batch.
	trees := make([]string, 300)
	for i := range trees {
		trees[i] = "a(b)"
	}
	if code := postJSON(t, hs.URL+"/v1/batch", BatchRequest{Op: "knn", Trees: trees, K: 1}, nil); code != 400 {
		t.Errorf("oversized batch: status %d, want 400", code)
	}
}

// TestAdmission429: with the admission semaphore saturated, query
// endpoints shed load with 429 + Retry-After while health stays green;
// after release, queries flow again.
func TestAdmission429(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxInFlight = 1
	s, hs, ts := newTestServer(t, cfg, 20, 8)
	if !s.sem.tryAcquire() {
		t.Fatal("could not saturate the limiter")
	}
	body, _ := json.Marshal(KNNRequest{Tree: ts[0].String(), K: 1})
	resp, err := http.Post(hs.URL+"/v1/knn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated knn: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code := getJSON(t, hs.URL+"/healthz", nil); code != 200 {
		t.Errorf("healthz under saturation: %d", code)
	}
	s.sem.release()
	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[0].String(), K: 1}, nil); code != 200 {
		t.Fatalf("knn after release: status %d, want 200", code)
	}
}

// TestQueryTimeout: an unmeetable deadline surfaces as 504.
func TestQueryTimeout(t *testing.T) {
	cfg := quietConfig()
	cfg.QueryTimeout = time.Nanosecond
	_, hs, ts := newTestServer(t, cfg, 30, 9)
	if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[0].String(), K: 3}, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out knn: status %d, want 504", code)
	}
	// Batch must report the expired deadline too, not a 200 with empty
	// per-query results (workers bail before their first query).
	breq := BatchRequest{Op: "knn", Trees: []string{ts[0].String(), ts[1].String()}, K: 3}
	if code := postJSON(t, hs.URL+"/v1/batch", breq, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out batch: status %d, want 504", code)
	}
}

// TestHealthReadyLifecycle: readyz flips to 503 once shutdown begins.
func TestHealthReadyLifecycle(t *testing.T) {
	s, hs, _ := newTestServer(t, quietConfig(), 10, 10)
	if code := getJSON(t, hs.URL+"/readyz", nil); code != 200 {
		t.Fatalf("readyz before shutdown: %d", code)
	}
	s.ready.Store(false)
	if code := getJSON(t, hs.URL+"/readyz", nil); code != 503 {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	if code := getJSON(t, hs.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz while draining: %d, want 200", code)
	}
}

// TestConcurrentTraffic hammers the HTTP surface with mixed knn, range,
// insert and lookup traffic (run under -race in CI) and then checks the
// index equals a clean rebuild over the same trees.
func TestConcurrentTraffic(t *testing.T) {
	s, hs, base := newTestServer(t, quietConfig(), 40, 11)
	extra := testDataset(40, 12)
	queries := testDataset(4, 13)
	client := hs.Client()

	var wg sync.WaitGroup
	post := func(path string, v any) int {
		body, _ := json.Marshal(v)
		resp, err := client.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for wk := 0; wk < 4; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for _, tr := range extra[wk*10 : (wk+1)*10] {
				if code := post("/v1/trees", InsertRequest{Tree: tr.String()}); code != 200 {
					t.Errorf("concurrent insert: status %d", code)
					return
				}
			}
		}(wk)
	}
	for wk := 0; wk < 4; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := queries[wk%len(queries)].String()
				var code int
				if i%2 == 0 {
					code = post("/v1/knn", KNNRequest{Tree: q, K: 3})
				} else {
					code = post("/v1/range", RangeRequest{Tree: q, Tau: 2})
				}
				if code != 200 {
					t.Errorf("concurrent query: status %d", code)
					return
				}
			}
		}(wk)
	}
	wg.Wait()

	if got, want := s.ix.Size(), len(base)+len(extra); got != want {
		t.Fatalf("after concurrent traffic: index size %d, want %d", got, want)
	}
	// Served index answers like a clean rebuild over the same trees.
	all := make([]*tree.Tree, s.ix.Size())
	for i := range all {
		all[i] = s.ix.Tree(i)
	}
	clean := search.NewIndex(all, search.NewBiBranch())
	for _, q := range queries {
		a, _, _ := s.ix.KNN(context.Background(), q, 5)
		b, _, _ := clean.KNN(context.Background(), q, 5)
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatalf("hammered server index differs from clean rebuild: %v vs %v", a, b)
			}
		}
	}
}
