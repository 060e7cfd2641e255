package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// manifest is the part of BENCHMARK.json the smoke test holds the program
// to.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all four workloads in both modes at a tiny scale and
// checks what they emit against BENCHMARK.json: the same workload and
// metric names and units, well-formed names, finite values, no failed
// operation.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(mf.Workloads), len(workloads))
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(mf.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		got := mf.EndToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[def.higher]
		if got.Name != def.name || got.Unit != def.unit || got.Better != better || got.Bound != def.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	o := options{seed: 1, seconds: 0.3, scale: 0.03, out: t.TempDir()}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, mf.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runOne(w, o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.failed, res.attempted, res.failures)
			}
			want := map[string]string{}
			for _, m := range mf.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range mf.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range res.metrics {
				if !name.MatchString(m.name) {
					t.Errorf("%s: metric name %q is malformed", w.name, m.name)
				}
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s: %s = %v is not finite", w.name, m.name, m.value)
				}
				if unit, ok := want[m.name]; !ok || unit != m.unit {
					t.Errorf("%s traced=%v: emits %s [%s], BENCHMARK.json says [%s] (declared: %v)", w.name, traced, m.name, m.unit, unit, ok)
				}
				delete(want, m.name)
			}
			for missing := range want {
				t.Errorf("%s traced=%v: BENCHMARK.json declares %s, the run did not emit it", w.name, traced, missing)
			}
		}
	}
}
