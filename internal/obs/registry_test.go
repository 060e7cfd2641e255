package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRegistryRendersBothWays: one declaration per family, and both
// walks carry it — names, types, help, labels, cumulative buckets.
func TestRegistryRendersBothWays(t *testing.T) {
	reg := NewRegistry("app_")
	depth := 3.0
	reg.GaugeFunc("app_queue_depth", "Jobs waiting.", func() float64 { return depth })
	reg.CounterFunc("app_jobs_total", "Jobs done.", func() float64 { return 7 })
	reg.LabelledFunc("app_info", "gauge", "Build.", func() []Sample {
		return []Sample{{Value: 1, Labels: Labels{"rev": "abc"}}}
	})
	hits := reg.CounterVec("app_hits_total", "Pages served.", "route")
	hits.With("/").Add(2)
	hits.With("/about").Add(1)
	if hits.With("/") != hits.With("/") {
		t.Fatal("With returned two children for one label value")
	}
	lat := reg.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1})
	lat.Observe(0.05)
	lat.Observe(0.5)
	lat.Observe(5)
	byRoute := reg.HistogramVec("app_route_seconds", "Latency, by route.", "route", []float64{1})
	byRoute.With("/").Observe(2)

	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP app_queue_depth Jobs waiting.\n# TYPE app_queue_depth gauge\napp_queue_depth 3\n",
		"# TYPE app_jobs_total counter\napp_jobs_total 7\n",
		`app_info{rev="abc"} 1`,
		"app_hits_total{route=\"/\"} 2\napp_hits_total{route=\"/about\"} 1\n",
		"app_latency_seconds_bucket{le=\"0.1\"} 1\napp_latency_seconds_bucket{le=\"1\"} 2\napp_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"app_latency_seconds_count 3\n",
		`app_route_seconds_bucket{route="/",le="+Inf"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus rendering lacks %q:\n%s", want, prom.String())
		}
	}

	var js bytes.Buffer
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var got, want any
	wantJSON := `{
		"queue_depth": 3,
		"jobs_total": 7,
		"info": [{"labels": {"rev": "abc"}, "value": 1}],
		"hits_total": [{"labels": {"route": "/"}, "value": 2}, {"labels": {"route": "/about"}, "value": 1}],
		"latency_seconds": {"count": 3, "sum": 5.55, "buckets": {"le_0.1": 1, "le_1": 2, "le_inf": 3}},
		"route_seconds": [{"labels": {"route": "/"}, "count": 1, "sum": 2, "buckets": {"le_1": 0, "le_inf": 1}}]
	}`
	if err := json.Unmarshal(js.Bytes(), &got); err != nil {
		t.Fatalf("JSON rendering does not parse: %v\n%s", err, js.String())
	}
	if err := json.Unmarshal([]byte(wantJSON), &want); err != nil {
		t.Fatal(err)
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Errorf("JSON rendering\n got %s\nwant %s", g, w)
	}

	// Func families read their source at every gather.
	depth = 9
	prom.Reset()
	_ = reg.WriteProm(&prom)
	if !strings.Contains(prom.String(), "app_queue_depth 9\n") {
		t.Error("gauge func not re-read at the second gather")
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	reg := NewRegistry("app_")
	reg.GaugeFunc("app_x", "X.", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("registering app_x twice did not panic")
		}
	}()
	reg.CounterVec("app_x", "X again.", "k")
}
