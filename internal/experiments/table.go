package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Row is one x-position of a figure: the measures the paper plots there.
type Row struct {
	// X is the swept parameter value (fanout, tree size, label count, k,
	// or range radius).
	X string
	// BiBranchPct and HistoPct are the percentages of the dataset whose
	// real edit distance had to be evaluated (the bars of Figs. 7–14).
	BiBranchPct float64
	HistoPct    float64
	// ResultPct is the result-set size as a percentage of the dataset
	// (the "Result %" bars of the range-query figures).
	ResultPct float64
	// BiBranchTime and SeqTime are the average per-query CPU times of the
	// filtered search and the sequential scan (the lines of the figures).
	BiBranchTime time.Duration
	SeqTime      time.Duration
	// Tau or K records the query parameter actually used at this row.
	Tau int
	K   int
}

// Table is one reproduced figure.
type Table struct {
	Figure  string // e.g. "Figure 7"
	Title   string // the paper's caption
	Dataset string // dataset descriptor, e.g. the generator spec
	XLabel  string
	Rows    []Row
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.Figure, t.Title)
	if t.Dataset != "" {
		fmt.Fprintf(w, "dataset: %s\n", t.Dataset)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tBiBranch%%\tHisto%%\tResult%%\tBiBranch CPU\tSequential CPU\tspeedup\n", t.XLabel)
	for _, r := range t.Rows {
		speedup := "-"
		if r.BiBranchTime > 0 && r.SeqTime > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(r.SeqTime)/float64(r.BiBranchTime))
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%s\t%s\t%s\n",
			r.X, r.BiBranchPct, r.HistoPct, r.ResultPct,
			cpu(r.BiBranchTime), cpu(r.SeqTime), speedup)
	}
	tw.Flush()
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Format(&sb)
	return sb.String()
}

// CSV writes the table as comma-separated values (header row first) for
// plotting tools. Times are in microseconds, empty for a replayed column.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		t.XLabel, "bibranch_pct", "histo_pct", "result_pct",
		"bibranch_us", "sequential_us", "param_tau", "param_k",
	}); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := []string{
			r.X,
			fmt.Sprintf("%.4f", r.BiBranchPct),
			fmt.Sprintf("%.4f", r.HistoPct),
			fmt.Sprintf("%.4f", r.ResultPct),
			us(r.BiBranchTime),
			us(r.SeqTime),
			fmt.Sprintf("%d", r.Tau),
			fmt.Sprintf("%d", r.K),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// cpu renders a mean query time to 10µs, or "-" for a column that was
// replayed, not timed.
func cpu(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}

// us renders a mean query time in whole microseconds for CSV, or nothing
// for a column that was replayed, not timed.
func us(d time.Duration) string {
	if d == 0 {
		return ""
	}
	return fmt.Sprintf("%d", d.Microseconds())
}

// DistRow is one distance value of the Fig. 15 distribution plot.
type DistRow struct {
	Distance int
	// Cumulative percentage of the dataset whose distance (under each
	// measure) to the query is ≤ Distance, averaged over queries.
	Edit      float64
	Histo     float64
	BiBranch2 float64
	BiBranch3 float64
	BiBranch4 float64
}

// DistTable is the reproduced Fig. 15.
type DistTable struct {
	Figure  string
	Title   string
	Dataset string
	Rows    []DistRow
}

// Format renders the distribution table as aligned text.
func (t *DistTable) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.Figure, t.Title)
	if t.Dataset != "" {
		fmt.Fprintf(w, "dataset: %s\n", t.Dataset)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "distance\tEdit\tHisto\tBiBranch(2)\tBiBranch(3)\tBiBranch(4)")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			r.Distance, r.Edit, r.Histo, r.BiBranch2, r.BiBranch3, r.BiBranch4)
	}
	tw.Flush()
}

// String renders the distribution table to a string.
func (t *DistTable) String() string {
	var sb strings.Builder
	t.Format(&sb)
	return sb.String()
}

// CSV writes the distribution table as comma-separated values.
func (t *DistTable) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"distance", "edit", "histo", "bibranch2", "bibranch3", "bibranch4",
	}); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := []string{
			fmt.Sprintf("%d", r.Distance),
			fmt.Sprintf("%.4f", r.Edit),
			fmt.Sprintf("%.4f", r.Histo),
			fmt.Sprintf("%.4f", r.BiBranch2),
			fmt.Sprintf("%.4f", r.BiBranch3),
			fmt.Sprintf("%.4f", r.BiBranch4),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
