package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"treesim/internal/dblp"
	"treesim/internal/search"
)

// seriesKey names one series the way the Prometheus exposition does,
// every label (le included) in sorted order: both renderings of /metrics
// are flattened to map[seriesKey]value and compared in that vocabulary.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// scrapeProm fetches ?format=prom, parses it strictly (histogram
// consistency included) and flattens it.
func scrapeProm(t *testing.T, base string) (map[string]float64, []promSample, map[string]string) {
	t.Helper()
	samples, types := parseProm(t, httpGet(t, base+"/metrics?format=prom"))
	checkHistograms(t, samples, types)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[seriesKey(s.name, s.labels)] = s.value
	}
	return out, samples, types
}

// scrapeJSON fetches the JSON document and flattens it by the registry's
// one encoding: key = family minus "treesim_"; a number is the series, an
// object {count, sum, buckets{le_…}} a histogram's _count/_sum/_bucket
// series, an array one such value per label set.
func scrapeJSON(t *testing.T, base string) map[string]float64 {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, base+"/metrics")), &doc); err != nil {
		t.Fatalf("JSON /metrics: %v", err)
	}
	out := make(map[string]float64)
	var flatten func(name string, labels map[string]string, v any)
	flatten = func(name string, labels map[string]string, v any) {
		switch v := v.(type) {
		case float64:
			out[seriesKey(name, labels)] = v
		case []any:
			for _, e := range v {
				series := e.(map[string]any)
				ls := make(map[string]string)
				for k, lv := range series["labels"].(map[string]any) {
					ls[k] = lv.(string)
				}
				delete(series, "labels")
				if val, ok := series["value"]; ok {
					flatten(name, ls, val)
				} else {
					flatten(name, ls, series)
				}
			}
		case map[string]any:
			out[seriesKey(name+"_count", labels)] = v["count"].(float64)
			out[seriesKey(name+"_sum", labels)] = v["sum"].(float64)
			for label, c := range v["buckets"].(map[string]any) {
				le, ok := strings.CutPrefix(label, "le_")
				if !ok {
					t.Errorf("%s: bucket label %q lacks the le_ prefix", name, label)
				}
				if le == "inf" {
					le = "+Inf"
				}
				withLE := map[string]string{"le": le}
				for k, lv := range labels {
					withLE[k] = lv
				}
				out[seriesKey(name+"_bucket", withLE)] = c.(float64)
			}
		default:
			t.Errorf("%s: JSON value %T fits no encoding", name, v)
		}
	}
	for key, v := range doc {
		flatten("treesim_"+key, nil, v)
	}
	return out
}

// metricFamilies is the exposition contract: every family /metrics
// serves, with its type and label keys — the parent commit's
// ?format=prom output minus the five SLO and exemplar families. A change
// to this list is a change to the operators' dashboards.
var metricFamilies = []struct{ name, typ, labels string }{
	{"treesim_build_info", "gauge", "dirty,go_version,revision"},
	{"treesim_uptime_seconds", "gauge", ""},
	{"treesim_index_size", "gauge", ""},
	{"treesim_index_live", "gauge", ""},
	{"treesim_index_info", "gauge", "filter"},
	{"treesim_store_epoch", "gauge", ""},
	{"treesim_store_segments", "gauge", ""},
	{"treesim_store_memtable_trees", "gauge", ""},
	{"treesim_store_tombstones", "gauge", ""},
	{"treesim_store_seals_total", "counter", ""},
	{"treesim_store_compactions_total", "counter", ""},
	{"treesim_inflight_requests", "gauge", ""},
	{"treesim_max_inflight_requests", "gauge", ""},
	{"treesim_inserts_total", "counter", ""},
	{"treesim_deletes_total", "counter", ""},
	{"treesim_snapshots_total", "counter", ""},
	{"treesim_wal_records_total", "counter", ""},
	{"treesim_wal_replayed_records", "gauge", ""},
	{"treesim_snapshot_crc_failures_total", "counter", ""},
	{"treesim_wal_segments", "gauge", ""},
	{"treesim_wal_bytes", "gauge", ""},
	{"treesim_degraded", "gauge", ""}, // {reason} only while degraded: TestDegradedObservability
	{"treesim_degraded_total", "counter", ""},
	{"treesim_goroutines", "gauge", ""},
	{"treesim_heap_bytes", "gauge", ""},
	{"treesim_gc_cycles_total", "counter", ""},
	{"treesim_gc_pause_seconds", "histogram", ""},
	{"treesim_sched_latency_seconds", "histogram", ""},
	{"treesim_trace_retained", "gauge", "class"},
	{"treesim_trace_offered_total", "counter", ""},
	{"treesim_trace_dropped_total", "counter", ""},
	{"treesim_trace_threshold_seconds", "gauge", ""},
	{"treesim_http_requests_total", "counter", "endpoint"},
	{"treesim_http_errors_total", "counter", "endpoint"},
	{"treesim_http_rejected_total", "counter", "endpoint"},
	{"treesim_http_timeouts_total", "counter", "endpoint"},
	{"treesim_http_request_duration_seconds", "histogram", "endpoint"},
	{"treesim_queries_total", "counter", ""},
	{"treesim_query_verified_total", "counter", ""},
	{"treesim_query_results_total", "counter", ""},
	{"treesim_query_candidates_total", "counter", ""},
	{"treesim_filter_pruned_total", "counter", "tier"},
	{"treesim_query_false_positives_total", "counter", ""},
	{"treesim_refine_aborted_total", "counter", ""},
	{"treesim_refine_precheck_rejects_total", "counter", ""},
	{"treesim_refine_dp_cells_total", "counter", ""},
	{"treesim_refine_dp_cells_full_total", "counter", ""},
	{"treesim_query_accessed_fraction", "histogram", ""},
	{"treesim_filter_candidates", "histogram", ""},
	{"treesim_filter_false_positive_ratio", "histogram", ""},
	{"treesim_filter_tightness_ratio", "histogram", ""},
	{"treesim_refine_dp_cells_per_verification", "histogram", ""},
	{"treesim_query_filter_seconds", "histogram", ""},
	{"treesim_query_refine_seconds", "histogram", ""},
	{"treesim_wal_append_seconds", "histogram", ""},
	{"treesim_wal_fsync_seconds", "histogram", ""},
	{"treesim_snapshot_write_seconds", "histogram", ""},
	{"treesim_compaction_seconds", "histogram", ""},
}

// volatile reports series that legitimately differ between two scrapes of
// a quiesced server: the clock, the Go runtime, and the scrapes themselves.
func volatile(key string) bool {
	for _, p := range []string{"treesim_uptime_seconds", "treesim_goroutines", "treesim_heap_bytes",
		"treesim_gc_", "treesim_sched_latency_seconds", `endpoint="/metrics"`} {
		if strings.Contains(key, p) {
			return true
		}
	}
	return false
}

// TestMetricsEndpoint is the exposition contract, checked on both
// renderings of one quiesced server: the families, types and label keys
// are exactly metricFamilies; JSON and Prometheus agree series for series
// and value for value; and the numbers say what the traffic did.
func TestMetricsEndpoint(t *testing.T) {
	s, hs, ts := newTestServer(t, quietConfig(), 40, 40)
	for i := 0; i < 3; i++ {
		if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[i].String(), K: 2}, nil); code != 200 {
			t.Fatalf("knn status %d", code)
		}
	}
	if code := postJSON(t, hs.URL+"/v1/range", RangeRequest{Tree: ts[0].String(), Tau: 1}, nil); code != 200 {
		t.Fatalf("range status %d", code)
	}
	postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: "a(b", K: 2}, nil)      // a client error: counted, not a 5xx
	postJSON(t, hs.URL+"/v1/trees", InsertRequest{Tree: "a(a,a(a))"}, nil) // the 41st tree
	// Enough verifications that the sequence tier prunes and the recorder
	// keeps something; then the 41st tree's mirror image at τ=1, a pair at
	// distance 2 that passes every check before the tree DP, so a DP abort
	// fires too; and a five-node chain at τ=1, which every filter tier,
	// the sequence one included, lets through to the 41st tree, but whose
	// height is 2 more, so the verifier's pre-check rejects the pair.
	driveRefineWorkload(t, hs.URL, ts)
	for _, q := range []string{"a(a(a),a)", "a(a(a(a(a))))"} {
		if code := postJSON(t, hs.URL+"/v1/range", RangeRequest{Tree: q, Tau: 1}, nil); code != 200 {
			t.Fatalf("range status %d", code)
		}
	}

	prom, samples, types := scrapeProm(t, hs.URL)
	doc := scrapeJSON(t, hs.URL)

	// The family list, on the Prometheus side where types are declared.
	want := make(map[string]bool, len(metricFamilies))
	for _, f := range metricFamilies {
		want[f.name] = true
		if types[f.name] != f.typ {
			t.Errorf("family %s: type %q, want %q", f.name, types[f.name], f.typ)
		}
	}
	for name := range types {
		if !want[name] {
			t.Errorf("family %s served but not in the contract", name)
		}
	}
	for _, sm := range samples {
		var keys []string
		for k := range sm.labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, f := range metricFamilies {
			if sm.name == f.name || (f.typ == "histogram" && strings.HasPrefix(sm.name, f.name+"_")) {
				if got := strings.Join(keys, ","); got != f.labels {
					t.Errorf("series %s: label keys %q, want %q", seriesKey(sm.name, sm.labels), got, f.labels)
				}
			}
		}
	}

	// JSON serves the same series with the same values.
	for key, v := range prom {
		jv, ok := doc[key]
		if !ok {
			t.Errorf("series %s in Prometheus, not in JSON", key)
		} else if jv != v && !volatile(key) {
			t.Errorf("series %s: Prometheus %v, JSON %v", key, v, jv)
		}
	}
	for key := range doc {
		if _, ok := prom[key]; !ok {
			t.Errorf("series %s in JSON, not in Prometheus", key)
		}
	}

	// What the traffic did, read off each rendering.
	for name, m := range map[string]map[string]float64{"prom": prom, "json": doc} {
		eq := func(key string, want float64) {
			t.Helper()
			if got, ok := m[key]; !ok || got != want {
				t.Errorf("%s: %s = %v (present %v), want %v", name, key, got, ok, want)
			}
		}
		eq(`treesim_http_requests_total{endpoint="/v1/knn"}`, 12) // 3 + the bad one + 8
		eq(`treesim_http_request_duration_seconds_count{endpoint="/v1/knn"}`, 12)
		eq(`treesim_http_errors_total{endpoint="/v1/knn"}`, 0)
		eq(`treesim_http_requests_total{endpoint="/v1/range"}`, 11)
		eq("treesim_queries_total", 22)
		eq("treesim_query_accessed_fraction_count", 22)
		eq("treesim_query_refine_seconds_count", 22)
		eq("treesim_filter_candidates_count", 22)
		eq("treesim_index_size", 41)
		eq("treesim_index_live", 41)
		eq(`treesim_index_info{filter="BiBranch"}`, 1)
		eq("treesim_inserts_total", 1)
		eq("treesim_max_inflight_requests", float64(s.cfg.MaxInFlight))
		eq("treesim_degraded", 0)
		eq("treesim_trace_offered_total", 24)
		// The funnel accounts for every tree every query saw: 4 queries
		// over 40 trees, 18 over 41.
		funnel := m["treesim_query_candidates_total"]
		for _, tier := range []string{"size", "bdist", "label", "positional", "sequence"} {
			v, ok := m[`treesim_filter_pruned_total{tier="`+tier+`"}`]
			if !ok {
				t.Errorf("%s: no treesim_filter_pruned_total{tier=%q}", name, tier)
			}
			funnel += v
		}
		if funnel != 4*40+18*41 {
			t.Errorf("%s: pruned tiers + candidates = %v, want %d trees accounted for", name, funnel, 4*40+18*41)
		}
		if v := m[`treesim_filter_pruned_total{tier="sequence"}`]; v < 1 {
			t.Errorf("%s: the sequence tier pruned %v trees over the workload, want >= 1", name, v)
		}
		if v := m["treesim_query_verified_total"]; v <= 0 || v > funnel {
			t.Errorf("%s: verified %v out of range (0, %v]", name, v, funnel)
		}
		if a, p := m["treesim_refine_aborted_total"], m["treesim_refine_precheck_rejects_total"]; a < 1 || p < 1 {
			t.Errorf("%s: %v aborted, %v pre-check rejects after the workload, want >= 1 each", name, a, p)
		}
		if c, f := m["treesim_refine_dp_cells_total"], m["treesim_refine_dp_cells_full_total"]; c <= 0 || c >= f {
			t.Errorf("%s: refine touched %v of %v full cells, want strictly fewer", name, c, f)
		}
		retained := 0.0
		for _, class := range []string{"error", "slow", "baseline"} {
			v, ok := m[`treesim_trace_retained{class="`+class+`"}`]
			if !ok {
				t.Errorf("%s: no trace_retained{class=%s}", name, class)
			}
			retained += v
		}
		if retained <= 0 {
			t.Errorf("%s: flight recorder retained nothing", name)
		}
		if m["treesim_goroutines"] < 1 || m["treesim_heap_bytes"] <= 0 || m["treesim_uptime_seconds"] < 0 {
			t.Errorf("%s: runtime gauges goroutines=%v heap=%v uptime=%v", name,
				m["treesim_goroutines"], m["treesim_heap_bytes"], m["treesim_uptime_seconds"])
		}
	}
}

// gathered reads one series straight off the registry.
func gathered(t *testing.T, m *Metrics, family, labelValue string) (float64, []uint64) {
	t.Helper()
	for _, f := range m.reg.Gather() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			if labelValue != "" && s.Labels["endpoint"] != labelValue {
				continue
			}
			if s.Hist != nil {
				return float64(s.Hist.Count), s.Hist.Counts
			}
			return s.Value, nil
		}
	}
	t.Fatalf("no series %s{%s}", family, labelValue)
	return 0, nil
}

// TestMetricsObserve: direct unit check of the status classes and the
// histogram bucketing edges.
func TestMetricsObserve(t *testing.T) {
	m := New(search.NewIndex(nil, search.NewBiBranch()), quietConfig()).metrics
	e := m.endpoint("/x")
	e.Observe(200, 100*time.Microsecond) // first bucket
	e.Observe(200, 10*time.Second)       // overflow bucket
	e.Observe(429, time.Millisecond)     // on the 1ms edge: le convention, second bucket
	e.Observe(504, time.Millisecond)
	e.Observe(500, time.Millisecond)
	for family, want := range map[string]float64{
		"treesim_http_requests_total": 5,
		"treesim_http_rejected_total": 1,
		"treesim_http_timeouts_total": 1,
		"treesim_http_errors_total":   1,
	} {
		if got, _ := gathered(t, m, family, "/x"); got != want {
			t.Errorf("%s{/x} = %v, want %v", family, got, want)
		}
	}
	count, buckets := gathered(t, m, "treesim_http_request_duration_seconds", "/x")
	if count != 5 || buckets[0] != 1 || buckets[1] != 3 || buckets[len(buckets)-1] != 1 {
		t.Errorf("latency count %v buckets %v, want 5 with 1 / 3 / … / 1", count, buckets)
	}
	if m.endpoint("/x").requests != e.requests {
		t.Error("a second route on the same endpoint name got its own counters")
	}

	m.ObserveQuery(search.Stats{Dataset: 100, Verified: 5, Results: 3})
	m.ObserveQuery(search.Stats{Dataset: 100, Verified: 100, Results: 100})
	if q, _ := gathered(t, m, "treesim_queries_total", ""); q != 2 {
		t.Errorf("queries_total %v, want 2", q)
	}
	if v, _ := gathered(t, m, "treesim_query_verified_total", ""); v != 105 {
		t.Errorf("query_verified_total %v, want 105", v)
	}
	// accessedBounds 0.01 0.02 0.05 …: 0.05 lands in the third bucket, 1.0
	// in the last finite one.
	if _, acc := gathered(t, m, "treesim_query_accessed_fraction", ""); acc[2] != 1 || acc[len(accessedBounds)-1] != 1 {
		t.Errorf("accessed-fraction buckets %v", acc)
	}
}

// TestObserveAllocatesNothing: finishing a request costs the metrics no
// allocation (and, by construction, no lock and no lookup: the route's
// counters are resolved when it is registered).
func TestObserveAllocatesNothing(t *testing.T) {
	m := New(search.NewIndex(nil, search.NewBiBranch()), quietConfig()).metrics
	e := m.endpoint("/v1/knn")
	st := search.Stats{Dataset: 100, Candidates: 9, Verified: 5, Results: 3, FalsePositives: 2, DPCells: 700, DPCellsFull: 900}
	if avg := testing.AllocsPerRun(1000, func() {
		e.Observe(200, 420*time.Microsecond)
		e.Observe(503, 3*time.Millisecond)
		m.ObserveQuery(st)
	}); avg != 0 {
		t.Errorf("Observe + ObserveQuery allocate %v objects per request, want 0", avg)
	}
}

// TestMetricsHammer: scrapes in both formats stay self-consistent while
// requests complete around them — every histogram's _count is its +Inf
// bucket (scrapeProm checks) and no endpoint shows more classed responses
// than requests — and once the writers stop the totals are exact. Run
// under -race it is the registry's concurrency test.
func TestMetricsHammer(t *testing.T) {
	s, hs, _ := newTestServer(t, quietConfig(), 5, 7)
	const writers, scrapes = 4, 15
	// Every response is classed, so requests == errors + rejected +
	// timeouts whenever no Observe is mid-flight: any slack in the order
	// counters are written or read in shows up as requests < classed.
	statuses := []int{500, 429, 504}
	e := s.metrics.endpoint("/v1/knn")
	stop := make(chan struct{})
	done := make([]float64, writers) // requests each writer finished, in whole rounds of statuses
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, status := range statuses {
					e.Observe(status, time.Duration(i)*time.Millisecond)
					s.metrics.ObserveQuery(search.Stats{Dataset: 10, Candidates: 4, Verified: 2, Results: 1})
				}
				done[w] += float64(len(statuses))
			}
		}(w)
	}

	consistent := func(m map[string]float64) {
		t.Helper()
		classed := m[`treesim_http_errors_total{endpoint="/v1/knn"}`] +
			m[`treesim_http_rejected_total{endpoint="/v1/knn"}`] +
			m[`treesim_http_timeouts_total{endpoint="/v1/knn"}`]
		if req := m[`treesim_http_requests_total{endpoint="/v1/knn"}`]; req < classed {
			t.Errorf("scrape shows %v requests but %v errors+rejected+timeouts", req, classed)
		}
		if inf, count := m[`treesim_http_request_duration_seconds_bucket{endpoint="/v1/knn",le="+Inf"}`],
			m[`treesim_http_request_duration_seconds_count{endpoint="/v1/knn"}`]; inf != count {
			t.Errorf("latency +Inf bucket %v != _count %v", inf, count)
		}
	}
	for i := 0; i < scrapes; i++ {
		prom, _, _ := scrapeProm(t, hs.URL)
		consistent(prom)
		consistent(scrapeJSON(t, hs.URL))
	}
	close(stop)
	wg.Wait()

	total := 0.0
	for _, n := range done {
		total += n
	}
	prom, _, _ := scrapeProm(t, hs.URL)
	for name, m := range map[string]map[string]float64{"prom": prom, "json": scrapeJSON(t, hs.URL)} {
		for key, want := range map[string]float64{
			`treesim_http_requests_total{endpoint="/v1/knn"}`:                 total,
			`treesim_http_errors_total{endpoint="/v1/knn"}`:                   total / 3,
			`treesim_http_rejected_total{endpoint="/v1/knn"}`:                 total / 3,
			`treesim_http_timeouts_total{endpoint="/v1/knn"}`:                 total / 3,
			`treesim_http_request_duration_seconds_count{endpoint="/v1/knn"}`: total,
			"treesim_queries_total":                                           total,
			"treesim_query_verified_total":                                    2 * total,
			"treesim_query_candidates_total":                                  4 * total,
			"treesim_query_accessed_fraction_count":                           total,
		} {
			if m[key] != want {
				t.Errorf("%s after the writers stopped: %s = %v, want %v", name, key, m[key], want)
			}
		}
	}
}

// TestSequenceTierMetric: on DBLP-like records, whose variants' near
// misses the sequence tier prunes, treesim_filter_pruned_total{tier=
// "sequence"} is the sum of the pruned.sequence every query's EXPLAIN
// returned, k-NN and range alike, and it is not zero.
func TestSequenceTierMetric(t *testing.T) {
	g := dblp.New(7)
	records := g.Dataset(300)
	ix := search.NewIndex(records, search.NewBiBranch())
	hs := httptest.NewServer(New(ix, quietConfig()).Handler())
	sum := 0
	for qi := 0; qi < 4; qi++ {
		q := g.Variant(records[qi*61]).String()
		var kr, rr QueryResponse
		if code := postJSON(t, hs.URL+"/v1/knn?explain=1", KNNRequest{Tree: q, K: 10}, &kr); code != 200 {
			t.Fatalf("knn status %d", code)
		}
		if code := postJSON(t, hs.URL+"/v1/range?explain=1", RangeRequest{Tree: q, Tau: 2}, &rr); code != 200 {
			t.Fatalf("range status %d", code)
		}
		for _, r := range []QueryResponse{kr, rr} {
			if r.Explain == nil {
				t.Fatal("no explain in an ?explain=1 response")
			}
			sum += r.Explain.Pruned.Sequence
		}
	}
	got := scrapeJSON(t, hs.URL)[`treesim_filter_pruned_total{tier="sequence"}`]
	hs.Close()
	if got != float64(sum) || sum == 0 {
		t.Fatalf("sequence tier metric %v, EXPLAIN funnels sum to %d (want equal, non-zero)", got, sum)
	}
}
