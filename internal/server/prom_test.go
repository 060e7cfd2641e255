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

// TestMetricsPromExposition: ?format=prom returns valid Prometheus 0.0.4
// text — every line parses under the strict parser above, every family
// has HELP then TYPE, histograms are cumulative with consistent
// _count/_sum — for every endpoint and after real traffic. (What the
// families are and what they count is TestMetricsEndpoint's contract.)
func TestMetricsPromExposition(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 40, 41)
	driveRefineWorkload(t, hs.URL, ts)
	resp, err := http.Get(hs.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	samples, types := parseProm(t, string(body))
	checkHistograms(t, samples, types)
	if len(types) != len(metricFamilies) {
		t.Errorf("%d families parsed, the contract lists %d", len(types), len(metricFamilies))
	}
}

// driveRefineWorkload issues 8 k-NN and 8 range queries drawn from the
// dataset: enough verifications that a check before the tree DP — an O(n)
// pre-check or the sequence bound — rejects at least one of them. (A DP
// early abort needs a pair those checks cannot see; TestMetricsEndpoint
// adds one.)
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

	seen := 0
	for key := range scrapeJSON(t, hs.URL) { // rejects labels without le_
		_, rest, ok := strings.Cut(key, `le="`)
		if !ok {
			continue
		}
		seen++
		if _, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(rest, "}"), `"`), 64); err != nil {
			t.Errorf("%s: le does not parse as float: %v", key, err)
		}
	}
	if seen == 0 {
		t.Error("no bucket series in the JSON document")
	}
}
