package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/qlog"
	"treesim/internal/search"
)

// writeWorkload builds a tiny dataset + recorded workload on disk and
// returns their paths.
func writeWorkload(t *testing.T, n, queries int) (dataPath, qlogPath string) {
	t.Helper()
	dir := t.TempDir()
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 12, SizeStd: 4, Labels: 5, Decay: 0.1}
	ts := datagen.New(spec, 7).Dataset(n, 5)

	var sb strings.Builder
	for _, tr := range ts {
		sb.WriteString(tr.String())
		sb.WriteByte('\n')
	}
	dataPath = filepath.Join(dir, "data.trees")
	if err := os.WriteFile(dataPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	qlogPath = filepath.Join(dir, "queries.jsonl")
	w, err := qlog.Open(qlogPath, qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queries; i++ {
		rec := qlog.Record{Op: "knn", Tree: ts[i%n].String(), K: 3}
		if i%3 == 2 {
			rec = qlog.Record{Op: "range", Tree: ts[i%n].String(), Tau: 3}
		}
		rec.Stats.Dataset = n
		if err := w.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dataPath, qlogPath
}

// TestAnalyzeEndToEnd: replay a recorded workload against the default
// filter matrix; the report must rank the paper's BiBranch filter at a
// lower accessed fraction than the histogram baseline, and the no-filter
// floor at 1.0.
func TestAnalyzeEndToEnd(t *testing.T) {
	dataPath, qlogPath := writeWorkload(t, 40, 12)
	out := filepath.Join(t.TempDir(), "BENCH_filters.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-qlog", qlogPath, "-data", dataPath,
		"-filters", "bibranch,bibranch-nopos,bibranch-q3,histo,none",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v", err)
	}
	if rep.Records != 12 || rep.Dataset != 40 {
		t.Fatalf("report covers %d records over %d trees, want 12/40", rep.Records, rep.Dataset)
	}
	if len(rep.Filters) < 4 {
		t.Fatalf("report has %d filters, want >= 4", len(rep.Filters))
	}

	byName := map[string]filterReport{}
	for _, f := range rep.Filters {
		if f.Queries != 12 {
			t.Errorf("%s replayed %d queries, want 12", f.Filter, f.Queries)
		}
		if f.AccessedFraction <= 0 || f.AccessedFraction > 1 {
			t.Errorf("%s accessed fraction %v outside (0,1]", f.Filter, f.AccessedFraction)
		}
		byName[f.Spec] = f
	}
	bib, histo, none := byName["bibranch"], byName["histo"], byName["none"]
	if bib.Filter == "" || histo.Filter == "" || none.Filter == "" {
		t.Fatalf("missing expected filters in %v", rep.Filters)
	}
	// The acceptance criterion: the paper's filter beats the histogram
	// baseline on candidate-set quality over the same real workload.
	if bib.AccessedFraction >= histo.AccessedFraction {
		t.Errorf("BiBranch accessed %.4f not better than histogram %.4f",
			bib.AccessedFraction, histo.AccessedFraction)
	}
	if none.AccessedFraction != 1 {
		t.Errorf("no-filter accessed fraction %v, want 1", none.AccessedFraction)
	}
	// BiBranch carries tightness evidence within its proven bound.
	if bib.TightnessSamples == 0 {
		t.Error("BiBranch replay produced no tightness samples")
	}
	if bib.TightnessLimit != 5 {
		t.Errorf("BiBranch tightness limit %d, want 5", bib.TightnessLimit)
	}
	if bib.TightnessMean > 5 {
		t.Errorf("BiBranch mean tightness %.3f exceeds the proven bound", bib.TightnessMean)
	}
	// The plain bound is replayed, as the histogram's is: named, counted,
	// and without the engine's tightness samples.
	if nopos := byName["bibranch-nopos"]; nopos.Filter != "BiBranch-nopos" || nopos.TightnessSamples != 0 {
		t.Errorf("bibranch-nopos row %+v, want a replayed BiBranch-nopos row", nopos)
	}

	// The table ranks filters and mentions each one by its spec — the
	// spec, not the filter name, because bibranch-q3/-q4 share a name.
	table := stdout.String()
	for _, f := range rep.Filters {
		if !strings.Contains(table, f.Spec) {
			t.Errorf("table lacks filter spec %s:\n%s", f.Spec, table)
		}
	}
}

// TestAnalyzeRowsPinned pins the histo, bibranch and none rows to what the
// engine read for all three when it still served the histogram filter: the
// histo row's replay must count what the engine's Histo index verified and
// kept as candidates, query for query.
func TestAnalyzeRowsPinned(t *testing.T) {
	want := map[[2]int]map[string][3]float64{
		{40, 12}: {
			"histo":    {0.160417, 6.4167, 0.402597},
			"bibranch": {0.108333, 4.3333, 0.115385},
			"none":     {1.000000, 40.0000, 0.904167},
		},
		{200, 60}: {
			"histo":    {0.077750, 15.5500, 0.702036},
			"bibranch": {0.026250, 5.0833, 0.117460},
			"none":     {1.000000, 200.0000, 0.976833},
		},
	}
	for w, rows := range want {
		dataPath, qlogPath := writeWorkload(t, w[0], w[1])
		out := filepath.Join(t.TempDir(), "r.json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-qlog", qlogPath, "-data", dataPath, "-filters", "histo,bibranch,none", "-out", out},
			&stdout, &stderr); code != 0 {
			t.Fatalf("n=%d: exit %d: %s", w[0], code, stderr.String())
		}
		raw, _ := os.ReadFile(out)
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		for _, f := range rep.Filters {
			got := fmt.Sprintf("%.6f %.4f %.6f", f.AccessedFraction, f.CandidatesMean, f.FalsePositiveRate)
			r := rows[f.Spec]
			if want := fmt.Sprintf("%.6f %.4f %.6f", r[0], r[1], r[2]); got != want {
				t.Errorf("n=%d %s: accessed, candidates, fp-rate %s; want %s", w[0], f.Spec, got, want)
			}
		}
		if len(rep.Filters) != 3 {
			t.Errorf("n=%d: %d rows, want 3", w[0], len(rep.Filters))
		}
	}
}

// TestAnalyzeBadInputs: missing flags and unknown filters fail cleanly.
func TestAnalyzeBadInputs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no -qlog: exit %d, want 2", code)
	}
	dataPath, qlogPath := writeWorkload(t, 5, 2)
	if code := run([]string{"-qlog", qlogPath, "-data", dataPath, "-filters", "nonsense", "-out", ""},
		&stdout, &stderr); code != 2 {
		t.Errorf("unknown filter: exit %d, want 2", code)
	}
	if code := run([]string{"-qlog", filepath.Join(t.TempDir(), "missing.jsonl"), "-data", dataPath, "-out", ""},
		&stdout, &stderr); code != 1 {
		t.Errorf("missing qlog: exit %d, want 1", code)
	}
}

// TestAnalyzeLimit: -limit truncates the replayed workload.
func TestAnalyzeLimit(t *testing.T) {
	dataPath, qlogPath := writeWorkload(t, 20, 10)
	out := filepath.Join(t.TempDir(), "r.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-qlog", qlogPath, "-data", dataPath, "-filters", "bibranch", "-limit", "4", "-out", out},
		&stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	raw, _ := os.ReadFile(out)
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Records != 4 || rep.Filters[0].Queries != 4 {
		t.Fatalf("limit ignored: %d records, %d queries", rep.Records, rep.Filters[0].Queries)
	}
}

// TestAnalyzeIndexWithDeletes: an index file with a deleted tree replays
// over its live trees, so a workload recorded over them draws no
// dataset-size warning.
func TestAnalyzeIndexWithDeletes(t *testing.T) {
	dir := t.TempDir()
	ts := datagen.New(datagen.Spec{FanoutMean: 2, FanoutStd: 1, SizeMean: 6, SizeStd: 2, Labels: 4, Decay: 0.1}, 3).Dataset(3, 3)
	ix := search.NewIndex(ts, search.NewBiBranch())
	ix.Delete(1)
	var snap bytes.Buffer
	if err := search.SaveIndex(&snap, ix); err != nil {
		t.Fatal(err)
	}
	idx, qlogPath, out := filepath.Join(dir, "ix.tsix"), filepath.Join(dir, "q.jsonl"), filepath.Join(dir, "r.json")
	if err := os.WriteFile(idx, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := qlog.Open(qlogPath, qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := qlog.Record{Op: "knn", Tree: ts[0].String(), K: 1}
	rec.Stats.Dataset = ix.Live()
	if err := w.Record(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-qlog", qlogPath, "-index", idx, "-filters", "bibranch", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Dataset != 2 || strings.Contains(stderr.String(), "warning") {
		t.Errorf("replayed over %d trees, want the 2 live ones; stderr: %s", rep.Dataset, stderr.String())
	}
}
