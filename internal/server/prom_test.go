package server

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"treesim/internal/tree"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})? (\S+)$`)
var promLabelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)

// parseProm parses a Prometheus text exposition strictly: every line must
// be a well-formed HELP/TYPE comment or a sample, every sample must belong
// to a family whose HELP and TYPE appeared first, and values must parse as
// floats. It returns samples plus the family→type map.
func parseProm(t *testing.T, body string) ([]promSample, map[string]string) {
	t.Helper()
	types := make(map[string]string)
	helped := make(map[string]bool)
	var samples []promSample
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				t.Fatalf("malformed HELP line %q", line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			if !helped[parts[0]] {
				t.Fatalf("TYPE before HELP for %q", parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		s := promSample{name: m[1], labels: map[string]string{}}
		if m[3] != "" {
			for _, pair := range splitPromLabels(t, m[3]) {
				lm := promLabelRe.FindStringSubmatch(pair)
				if lm == nil {
					t.Fatalf("bad label pair %q in line %q", pair, line)
				}
				s.labels[lm[1]] = lm[2]
			}
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Fatalf("value %q in line %q: %v", m[4], line, err)
		}
		s.value = v
		family := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(s.name, suf) && types[strings.TrimSuffix(s.name, suf)] == "histogram" {
				family = strings.TrimSuffix(s.name, suf)
			}
		}
		if types[family] == "" {
			t.Fatalf("sample %q has no preceding TYPE", s.name)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

// splitPromLabels splits `a="x",b="y"` on commas outside quotes.
func splitPromLabels(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// labelsKey collapses a label set (minus le) into a map key.
func labelsKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, labels[k])
	}
	return b.String()
}

// checkHistograms verifies, for every histogram family and label set:
// monotone non-decreasing cumulative buckets in le order ending at +Inf,
// and _count equal to the +Inf bucket.
func checkHistograms(t *testing.T, samples []promSample, types map[string]string) {
	t.Helper()
	type series struct {
		les    []float64
		counts []float64
		count  float64
		hasCnt bool
		hasSum bool
	}
	hist := make(map[string]*series) // family + label key
	get := func(fam string, labels map[string]string) *series {
		k := fam + "|" + labelsKey(labels)
		if hist[k] == nil {
			hist[k] = &series{}
		}
		return hist[k]
	}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket") && types[strings.TrimSuffix(s.name, "_bucket")] == "histogram":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				t.Fatalf("%s: le %q: %v", s.name, s.labels["le"], err)
			}
			sr := get(strings.TrimSuffix(s.name, "_bucket"), s.labels)
			sr.les = append(sr.les, le)
			sr.counts = append(sr.counts, s.value)
		case strings.HasSuffix(s.name, "_count") && types[strings.TrimSuffix(s.name, "_count")] == "histogram":
			sr := get(strings.TrimSuffix(s.name, "_count"), s.labels)
			sr.count = s.value
			sr.hasCnt = true
		case strings.HasSuffix(s.name, "_sum") && types[strings.TrimSuffix(s.name, "_sum")] == "histogram":
			get(strings.TrimSuffix(s.name, "_sum"), s.labels).hasSum = true
		}
	}
	if len(hist) == 0 {
		t.Fatal("no histogram series found")
	}
	for key, sr := range hist {
		if len(sr.les) == 0 {
			t.Errorf("%s: histogram series with no buckets", key)
			continue
		}
		if !sr.hasCnt || !sr.hasSum {
			t.Errorf("%s: missing _count/_sum (count %v, sum %v)", key, sr.hasCnt, sr.hasSum)
		}
		for i := 1; i < len(sr.les); i++ {
			if sr.les[i] <= sr.les[i-1] {
				t.Errorf("%s: le bounds not increasing: %v", key, sr.les)
			}
			if sr.counts[i] < sr.counts[i-1] {
				t.Errorf("%s: cumulative counts decrease at le=%v: %v", key, sr.les[i], sr.counts)
			}
		}
		last := len(sr.les) - 1
		if !math.IsInf(sr.les[last], 1) {
			t.Errorf("%s: last bucket le=%v, want +Inf", key, sr.les[last])
		}
		if sr.counts[last] != sr.count {
			t.Errorf("%s: +Inf bucket %v != _count %v", key, sr.counts[last], sr.count)
		}
	}
}

// TestMetricsPromExposition: ?format=prom returns valid Prometheus text —
// every line parses, every family has HELP/TYPE, histograms are cumulative
// with consistent _count/_sum — and the counters reflect the traffic.
func TestMetricsPromExposition(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 40, 41)
	for i := 0; i < 3; i++ {
		if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[i].String(), K: 2}, nil); code != 200 {
			t.Fatalf("knn status %d", code)
		}
	}
	postJSON(t, hs.URL+"/v1/range", RangeRequest{Tree: ts[0].String(), Tau: 1}, nil)

	scrape := func() ([]promSample, map[string]string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/metrics?format=prom")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q, want text/plain", ct)
		}
		body, _ := io.ReadAll(resp.Body)
		return parseProm(t, string(body))
	}
	samples, types := scrape()
	checkHistograms(t, samples, types)

	byName := func(name string, labels map[string]string) (float64, bool) {
		for _, s := range samples {
			if s.name != name {
				continue
			}
			match := true
			for k, v := range labels {
				if s.labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s.value, true
			}
		}
		return 0, false
	}
	if v, ok := byName("treesim_http_requests_total", map[string]string{"endpoint": "/v1/knn"}); !ok || v != 3 {
		t.Errorf("knn requests %v (found %v), want 3", v, ok)
	}
	if v, ok := byName("treesim_queries_total", nil); !ok || v != 4 {
		t.Errorf("queries_total %v (found %v), want 4", v, ok)
	}
	if v, ok := byName("treesim_index_size", nil); !ok || v != 40 {
		t.Errorf("index_size %v (found %v), want 40", v, ok)
	}
	if v, ok := byName("treesim_index_info", map[string]string{"filter": "BiBranch"}); !ok || v != 1 {
		t.Errorf("index_info{filter=BiBranch} %v (found %v), want 1", v, ok)
	}
	if _, ok := byName("treesim_wal_fsync_seconds_count", nil); !ok {
		t.Error("wal_fsync_seconds histogram missing")
	}
	if v, ok := byName("treesim_query_refine_seconds_count", nil); !ok || v != 4 {
		t.Errorf("query_refine_seconds_count %v (found %v), want 4", v, ok)
	}
	if v, ok := byName("treesim_query_accessed_fraction_count", nil); !ok || v != 4 {
		t.Errorf("accessed_fraction count %v (found %v), want 4", v, ok)
	}

	// The filter funnel: one counter family, one series per cascade tier,
	// which with the candidates accounts for every tree the four queries
	// saw.
	funnel := 0.0
	for _, tier := range []string{"size", "bdist", "positional"} {
		v, ok := byName("treesim_filter_pruned_total", map[string]string{"tier": tier})
		if !ok {
			t.Errorf("filter_pruned_total{tier=%s} missing", tier)
		}
		funnel += v
	}
	cands, _ := byName("treesim_query_candidates_total", nil)
	if funnel <= 0 || funnel+cands != 4*40 {
		t.Errorf("filter_pruned_total sums to %v with %v candidates, want %d trees accounted for", funnel, cands, 4*40)
	}

	// Bounded refine: the counter families must exist, and the queries
	// above verified something, so touched cells are positive and never
	// exceed the full-DP cost.
	cells, ok := byName("treesim_refine_dp_cells_total", nil)
	if !ok || cells <= 0 {
		t.Errorf("refine_dp_cells_total %v (found %v), want > 0", cells, ok)
	}
	full, ok := byName("treesim_refine_dp_cells_full_total", nil)
	if !ok || full < cells {
		t.Errorf("refine_dp_cells_full_total %v (found %v), want >= %v", full, ok, cells)
	}
	if _, ok := byName("treesim_refine_aborted_total", nil); !ok {
		t.Error("refine_aborted_total missing")
	}
	if _, ok := byName("treesim_refine_precheck_rejects_total", nil); !ok {
		t.Error("refine_precheck_rejects_total missing")
	}
	if _, ok := byName("treesim_refine_dp_cells_per_verification_count", nil); !ok {
		t.Error("refine_dp_cells_per_verification histogram missing")
	}

	// Runtime telemetry: gauges carry live values and both runtime
	// histograms parse through the strict checker above.
	if v, ok := byName("treesim_goroutines", nil); !ok || v < 1 {
		t.Errorf("goroutines %v (found %v), want >= 1", v, ok)
	}
	if v, ok := byName("treesim_heap_bytes", nil); !ok || v <= 0 {
		t.Errorf("heap_bytes %v (found %v), want > 0", v, ok)
	}
	if _, ok := byName("treesim_gc_pause_seconds_count", nil); !ok {
		t.Error("gc_pause_seconds histogram missing")
	}
	if _, ok := byName("treesim_sched_latency_seconds_count", nil); !ok {
		t.Error("sched_latency_seconds histogram missing")
	}

	// SLO families: the objectives render, and the four /v1 requests show
	// up as burn-rate rows for both windows.
	if v, ok := byName("treesim_slo_target", nil); !ok || v != 0.99 {
		t.Errorf("slo_target %v (found %v), want 0.99", v, ok)
	}
	for _, win := range []string{"fast", "slow"} {
		if _, ok := byName("treesim_slo_burn_rate", map[string]string{"endpoint": "/v1/knn", "window": win}); !ok {
			t.Errorf("no slo_burn_rate{endpoint=/v1/knn,window=%s} sample", win)
		}
	}

	// Flight recorder families: 4 requests into an empty ring are all
	// offered, the per-class retained gauges exist, and the exemplar
	// family links buckets to request IDs with a parseable le label.
	if v, ok := byName("treesim_trace_offered_total", nil); !ok || v < 4 {
		t.Errorf("trace_offered_total %v (found %v), want >= 4", v, ok)
	}
	for _, class := range []string{"error", "slow", "baseline"} {
		if _, ok := byName("treesim_trace_retained", map[string]string{"class": class}); !ok {
			t.Errorf("no trace_retained{class=%s} sample", class)
		}
	}
	foundEx := false
	for _, s := range samples {
		if s.name != "treesim_request_latency_exemplar" {
			continue
		}
		foundEx = true
		if !strings.HasPrefix(s.labels["request_id"], "r") {
			t.Errorf("exemplar request_id %q not a request id", s.labels["request_id"])
		}
		if _, err := strconv.ParseFloat(s.labels["le"], 64); err != nil {
			t.Errorf("exemplar le %q does not parse: %v", s.labels["le"], err)
		}
		if s.value < 0 {
			t.Errorf("exemplar value %v negative", s.value)
		}
	}
	if !foundEx {
		t.Error("no treesim_request_latency_exemplar samples after traffic")
	}

	// After a workload big enough to reach them, both of the bounded
	// verifier's cut-short paths have fired, it touched strictly fewer
	// cells than full verification would, and the recorder kept traces.
	driveRefineWorkload(t, hs.URL, ts)
	samples, _ = scrape()
	if v, _ := byName("treesim_refine_aborted_total", nil); v < 1 {
		t.Errorf("refine_aborted_total %v after the workload, want >= 1", v)
	}
	if v, _ := byName("treesim_refine_precheck_rejects_total", nil); v < 1 {
		t.Errorf("refine_precheck_rejects_total %v after the workload, want >= 1", v)
	}
	cells, _ = byName("treesim_refine_dp_cells_total", nil)
	full, _ = byName("treesim_refine_dp_cells_full_total", nil)
	if cells >= full {
		t.Errorf("refine touched %v of %v full cells after the workload, want strictly fewer", cells, full)
	}
	retained := 0.0
	for _, class := range []string{"error", "slow", "baseline"} {
		v, _ := byName("treesim_trace_retained", map[string]string{"class": class})
		retained += v
	}
	if retained <= 0 {
		t.Error("flight recorder retained no trace after the workload")
	}
}

// driveRefineWorkload issues 8 k-NN and 8 range queries drawn from the
// dataset: enough verifications that both an O(n) pre-check and a DP early
// abort reject at least one of them.
func driveRefineWorkload(t *testing.T, url string, ts []*tree.Tree) {
	t.Helper()
	for _, q := range ts[:8] {
		if code := postJSON(t, url+"/v1/knn", KNNRequest{Tree: q.String(), K: 3}, nil); code != 200 {
			t.Fatalf("knn status %d", code)
		}
		if code := postJSON(t, url+"/v1/range", RangeRequest{Tree: q.String(), Tau: 2}, nil); code != 200 {
			t.Fatalf("range status %d", code)
		}
	}
}

// TestMetricsContentNegotiation: the Accept header switches the
// representation, the default stays JSON, and ?format=json forces JSON
// even for text-accepting clients.
func TestMetricsContentNegotiation(t *testing.T) {
	_, hs, _ := newTestServer(t, quietConfig(), 10, 42)

	get := func(accept, query string) string {
		req, _ := http.NewRequest("GET", hs.URL+"/metrics"+query, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get("Content-Type")
	}
	if ct := get("", ""); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default content type %q, want JSON", ct)
	}
	if ct := get("text/plain", ""); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Accept: text/plain content type %q, want prom text", ct)
	}
	if ct := get("application/json, text/plain", ""); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("JSON-accepting client got %q", ct)
	}
	if ct := get("text/plain", "?format=json"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("?format=json overridden by Accept: got %q", ct)
	}
}

// TestBucketLabelsParse: every bucket label in the JSON document is
// "le_<float>" where <float> round-trips through strconv.ParseFloat — the
// label-hygiene contract shared with the Prometheus le values.
func TestBucketLabelsParse(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 20, 43)
	postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[0].String(), K: 2}, nil)

	var snap Snapshot
	if code := getJSON(t, hs.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	check := func(where string, buckets map[string]uint64) {
		t.Helper()
		if len(buckets) == 0 {
			t.Errorf("%s: no buckets", where)
		}
		for label := range buckets {
			num, ok := strings.CutPrefix(label, "le_")
			if !ok {
				t.Errorf("%s: label %q lacks le_ prefix", where, label)
				continue
			}
			if _, err := strconv.ParseFloat(num, 64); err != nil {
				t.Errorf("%s: label %q does not parse as float: %v", where, label, err)
			}
		}
	}
	check("endpoint latency", snap.Endpoints["/v1/knn"].Buckets)
	check("accessed fraction", snap.Queries.AccessedBuckets)
	check("wal_fsync", snap.WALFsyncSeconds.Buckets)
	check("query_filter", snap.QueryFilterSeconds.Buckets)
	check("snapshot_write", snap.SnapshotWriteSeconds.Buckets)
}
