// Command treesim-analyze replays a recorded query workload (a JSONL log
// written by treesimd -qlog) offline against a matrix of candidate
// filters and reports each filter's effectiveness on that real traffic:
// accessed fraction (the paper's quality measure), false-positive rate,
// mean candidate count, observed bound tightness, and stage times. It is
// the paper's filter-comparison experiment (§6) run on the queries a
// deployment actually served, instead of a synthetic workload.
//
//	treesim-analyze -qlog queries.jsonl -data data.trees
//	treesim-analyze -qlog queries.jsonl -data data.trees \
//	    -filters bibranch,bibranch-q3,histo,none -out BENCH_filters.json
//
// The dataset must be the one the recording server indexed (replayed
// counters are sanity-checked against the recorded dataset size). Output:
// a ranked table on stdout and a JSON report (-out).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"treesim/internal/dataset"
	"treesim/internal/qlog"
	"treesim/internal/search"
	"treesim/internal/tree"
	"treesim/internal/xmltree"
)

type config struct {
	qlogPath string
	data     string
	xmlDir   string
	index    string
	filters  string
	out      string
	limit    int
}

// defaultFilters is the replay matrix: the paper's positional filter, its
// ablations (no positions; higher branch levels), the histogram baseline
// the paper compares against, and the no-filter floor.
const defaultFilters = "bibranch,bibranch-nopos,bibranch-q3,bibranch-q4,histo,none"

// filterReport is one filter's aggregate over the replayed workload.
type filterReport struct {
	Filter string `json:"filter"`
	// Spec is the -filters token that produced this row.
	Spec    string `json:"spec"`
	Queries int    `json:"queries"`
	// Errors counts records that failed to replay (unparsable tree).
	Errors int `json:"errors,omitempty"`
	// AccessedFraction is total verified / total dataset scans — the share
	// of the dataset that paid an exact edit distance under this filter.
	AccessedFraction float64 `json:"accessed_fraction"`
	// CandidatesMean is the mean per-query candidate count.
	CandidatesMean float64 `json:"candidates_mean"`
	// FalsePositiveRate is total false positives / total verified.
	FalsePositiveRate float64 `json:"false_positive_rate"`
	// TightnessMean is the mean BDist/EDist over sampled verified pairs
	// (0 when the filter has no branch embedding), TightnessSamples how
	// many pairs were sampled, TightnessLimit the filter's proven bound.
	TightnessMean    float64 `json:"tightness_mean,omitempty"`
	TightnessSamples int     `json:"tightness_samples,omitempty"`
	TightnessLimit   int     `json:"tightness_limit,omitempty"`
	FilterMeanUS     float64 `json:"filter_mean_us"`
	RefineMeanUS     float64 `json:"refine_mean_us"`
	// TotalP50US/TotalP99US are per-query total (filter+refine) time
	// percentiles.
	TotalP50US int64 `json:"total_p50_us"`
	TotalP99US int64 `json:"total_p99_us"`
	// IndexBuildUS is the one-time cost of building this filter's index.
	IndexBuildUS int64 `json:"index_build_us"`
	// Bounded-verification counters over the replay: verifications cut
	// short before the tree DP (an O(n) pre-check or the sequence bound)
	// or by a DP early abort, and the DP cells actually computed vs. what
	// full verification would cost.
	RefineAborted   int   `json:"refine_aborted"`
	PrecheckRejects int   `json:"precheck_rejects"`
	DPCells         int64 `json:"dp_cells"`
	DPCellsFull     int64 `json:"dp_cells_full"`
}

// report is the written JSON document.
type report struct {
	Timestamp string         `json:"timestamp"`
	GoVersion string         `json:"go_version"`
	QlogPath  string         `json:"qlog"`
	Records   int            `json:"records"`
	Skipped   int            `json:"skipped,omitempty"`
	Dataset   int            `json:"dataset"`
	Filters   []filterReport `json:"filters"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("treesim-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.qlogPath, "qlog", "", "recorded workload (JSONL from treesimd -qlog); required")
	fs.StringVar(&c.data, "data", "", "dataset file in line format (the dataset the recording server indexed)")
	fs.StringVar(&c.xmlDir, "xml", "", "directory of XML documents (alternative to -data)")
	fs.StringVar(&c.index, "index", "", "saved index file; its trees become the dataset (alternative to -data/-xml)")
	fs.StringVar(&c.filters, "filters", defaultFilters,
		"comma-separated filter matrix: bibranch, bibranch-nopos, bibranch-qN, histo, none")
	fs.StringVar(&c.out, "out", "BENCH_filters.json", "JSON report path (empty disables)")
	fs.IntVar(&c.limit, "limit", 0, "replay at most this many records (0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.qlogPath == "" {
		fmt.Fprintln(stderr, "treesim-analyze: -qlog is required")
		return 2
	}

	recs, skipped, err := qlog.ReadFile(c.qlogPath)
	if err != nil {
		fmt.Fprintf(stderr, "treesim-analyze: %v\n", err)
		return 1
	}
	if skipped > 0 {
		fmt.Fprintf(stderr, "treesim-analyze: skipped %d unreadable log lines\n", skipped)
	}
	if c.limit > 0 && len(recs) > c.limit {
		recs = recs[:c.limit]
	}
	if len(recs) == 0 {
		fmt.Fprintln(stderr, "treesim-analyze: workload is empty")
		return 1
	}

	ts, err := loadDataset(c)
	if err != nil {
		fmt.Fprintf(stderr, "treesim-analyze: %v\n", err)
		return 1
	}
	if want := recs[0].Stats.Dataset; want > 0 && want != len(ts) {
		fmt.Fprintf(stderr, "treesim-analyze: warning: workload was recorded over %d trees, replaying over %d\n",
			want, len(ts))
	}

	specs := strings.Split(c.filters, ",")
	rep := report{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		QlogPath:  c.qlogPath,
		Records:   len(recs),
		Skipped:   skipped,
		Dataset:   len(ts),
	}
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		f, err := search.ParseFilter(spec, 2)
		if err != nil {
			fmt.Fprintf(stderr, "treesim-analyze: %v\n", err)
			return 2
		}
		fr, err := replay(spec, f, ts, recs)
		if err != nil {
			fmt.Fprintf(stderr, "treesim-analyze: %s: %v\n", spec, err)
			return 1
		}
		rep.Filters = append(rep.Filters, fr)
		fmt.Fprintf(stderr, "treesim-analyze: %s: %d queries, accessed %.4f\n",
			fr.Spec, fr.Queries, fr.AccessedFraction)
	}

	printTable(stdout, rep)
	if c.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "treesim-analyze: %v\n", err)
			return 1
		}
		if err := os.WriteFile(c.out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "treesim-analyze: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "treesim-analyze: report written to %s\n", c.out)
	}
	return 0
}

func loadDataset(c config) ([]*tree.Tree, error) {
	switch {
	case c.data != "":
		return dataset.LoadFile(c.data)
	case c.xmlDir != "":
		ts, _, err := dataset.LoadXMLDir(c.xmlDir, xmltree.DefaultOptions())
		return ts, err
	case c.index != "":
		f, err := os.Open(c.index)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ix, err := search.LoadIndex(f)
		if err != nil {
			return nil, err
		}
		ts := make([]*tree.Tree, ix.Size())
		for i := range ts {
			ts[i] = ix.Tree(i)
		}
		return ts, nil
	}
	return nil, fmt.Errorf("need a dataset: -data, -xml or -index")
}

// replay runs the whole workload through one filter and aggregates its
// quality counters.
func replay(spec string, f search.Filter, ts []*tree.Tree, recs []qlog.Record) (filterReport, error) {
	buildStart := time.Now()
	// One refine worker keeps the replay's verified counts — the table's
	// accessed fraction — independent of worker timing.
	ix := search.NewIndex(ts, search.WithFilter(f), search.WithRefineWorkers(1))
	fr := filterReport{
		Filter:       ix.Filter().Name(),
		Spec:         spec,
		IndexBuildUS: time.Since(buildStart).Microseconds(),
	}
	if bb, ok := f.(*search.BiBranch); ok {
		fr.TightnessLimit = bb.Factor()
	}

	var (
		verified, datasetScans, candidates, falsePos int
		filterTime, refineTime                       time.Duration
		tightSum                                     float64
		tightN                                       int
		totals                                       []int64
	)
	ctx := context.Background()
	for _, r := range recs {
		q, err := tree.Parse(r.Tree)
		if err != nil || q.IsEmpty() {
			fr.Errors++
			continue
		}
		var stats search.Stats
		switch r.Op {
		case "knn":
			_, stats, err = ix.KNN(ctx, q, r.K)
		case "range":
			_, stats, err = ix.Range(ctx, q, r.Tau)
		default:
			fr.Errors++
			continue
		}
		if err != nil {
			return fr, err
		}
		fr.Queries++
		verified += stats.Verified
		datasetScans += stats.Dataset
		candidates += stats.Candidates
		falsePos += stats.FalsePositives
		fr.RefineAborted += stats.RefineAborted
		fr.PrecheckRejects += stats.PrecheckRejects
		fr.DPCells += stats.DPCells
		fr.DPCellsFull += stats.DPCellsFull
		filterTime += stats.FilterTime
		refineTime += stats.RefineTime
		for _, t := range stats.Tightness {
			tightSum += t
			tightN++
		}
		totals = append(totals, (stats.FilterTime + stats.RefineTime).Microseconds())
	}
	if fr.Queries == 0 {
		return fr, fmt.Errorf("no replayable records")
	}
	if datasetScans > 0 {
		fr.AccessedFraction = float64(verified) / float64(datasetScans)
	}
	fr.CandidatesMean = float64(candidates) / float64(fr.Queries)
	if verified > 0 {
		fr.FalsePositiveRate = float64(falsePos) / float64(verified)
	}
	if tightN > 0 {
		fr.TightnessMean = tightSum / float64(tightN)
		fr.TightnessSamples = tightN
	}
	fr.FilterMeanUS = float64(filterTime.Microseconds()) / float64(fr.Queries)
	fr.RefineMeanUS = float64(refineTime.Microseconds()) / float64(fr.Queries)
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	fr.TotalP50US = totals[(len(totals)-1)/2]
	fr.TotalP99US = totals[(len(totals)-1)*99/100]
	return fr, nil
}

// printTable renders the per-filter comparison, best accessed fraction
// first — the ranking the paper's experiments report.
func printTable(w io.Writer, rep report) {
	rows := append([]filterReport(nil), rep.Filters...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].AccessedFraction < rows[j].AccessedFraction })
	fmt.Fprintf(w, "workload: %d queries over %d trees (%s)\n\n", rep.Records, rep.Dataset, rep.QlogPath)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "filter\taccessed\tcand/query\tfp-rate\ttightness\tfilter-us\trefine-us\tp99-us\tdp-cells\tcut-short")
	for _, r := range rows {
		tight := "-"
		if r.TightnessSamples > 0 {
			tight = fmt.Sprintf("%.2f/%d", r.TightnessMean, r.TightnessLimit)
		}
		cells := "-"
		if r.DPCellsFull > 0 {
			cells = fmt.Sprintf("%.2f", float64(r.DPCells)/float64(r.DPCellsFull))
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.1f\t%.3f\t%s\t%.0f\t%.0f\t%d\t%s\t%d+%d\n",
			r.Spec, r.AccessedFraction, r.CandidatesMean, r.FalsePositiveRate,
			tight, r.FilterMeanUS, r.RefineMeanUS, r.TotalP99US,
			cells, r.PrecheckRejects, r.RefineAborted)
	}
	tw.Flush()
}
