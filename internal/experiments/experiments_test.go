package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"treesim/internal/dblp"
)

func TestConfigK(t *testing.T) {
	cfg := Config{KNNFraction: 0.0025}
	if cfg.k(2000) != 5 {
		t.Errorf("k(2000) = %d, want 5 (the paper's 0.25%%)", cfg.k(2000))
	}
	if cfg.k(10) != 1 {
		t.Errorf("k(10) = %d, want at least 1", cfg.k(10))
	}
}

func TestAvgPairwiseDistance(t *testing.T) {
	cfg := UnitScale()
	ts := DBLPDataset(cfg)
	rng := rand.New(rand.NewSource(1))
	avg := cfg.avgPairwiseDistance(ts, rng)
	if avg <= 0 {
		t.Fatalf("average pairwise distance %f must be positive", avg)
	}
	// DBLP-like records are ~10 nodes; avg distance must be far below the
	// delete-all/insert-all bound.
	if avg > 20 {
		t.Errorf("average pairwise distance %f implausibly large", avg)
	}
}

// TestFigureRangeSmoke runs a synthetic range figure at unit scale and
// checks the structural claims the paper makes: BiBranch accesses no more
// than Histo, and at least the result set.
func TestFigureRangeSmoke(t *testing.T) {
	cfg := UnitScale()
	tbl := Fig07(cfg)
	if len(tbl.Rows) != 4 {
		t.Fatalf("Fig07 has %d rows, want 4", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.BiBranchPct > r.HistoPct+1e-9 {
			t.Errorf("fanout %s: BiBranch %.2f%% accessed more than Histo %.2f%%",
				r.X, r.BiBranchPct, r.HistoPct)
		}
		if r.BiBranchPct+1e-9 < r.ResultPct {
			t.Errorf("fanout %s: accessed %.2f%% below result size %.2f%% — impossible for a complete search",
				r.X, r.BiBranchPct, r.ResultPct)
		}
		if r.Tau < 1 {
			t.Errorf("fanout %s: tau = %d", r.X, r.Tau)
		}
	}
	if s := tbl.String(); !strings.Contains(s, "Figure 7") {
		t.Error("table rendering lost the figure header")
	}
}

func TestFigureKNNSmoke(t *testing.T) {
	cfg := UnitScale()
	tbl := Fig13(cfg)
	if len(tbl.Rows) != 7 {
		t.Fatalf("Fig13 has %d rows, want 7", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.BiBranchPct <= 0 || r.BiBranchPct > 100 {
			t.Errorf("k=%s: BiBranch%% = %f out of range", r.X, r.BiBranchPct)
		}
		// k-NN must access at least k trees.
		minPct := 100 * float64(r.K) / float64(cfg.DatasetSize)
		if r.BiBranchPct+1e-9 < minPct {
			t.Errorf("k=%s: accessed %.2f%% below k/|D| = %.2f%%", r.X, r.BiBranchPct, minPct)
		}
	}
}

// TestFig15Monotone: every cumulative curve is non-decreasing in the
// distance, ends ≤ 100, and each lower bound's curve dominates (lies above)
// the Edit curve — lower bounds only ever shift mass toward smaller values.
func TestFig15(t *testing.T) {
	cfg := UnitScale()
	tbl := Fig15(cfg)
	if len(tbl.Rows) != 12 {
		t.Fatalf("Fig15 has %d rows, want 12", len(tbl.Rows))
	}
	prev := DistRow{}
	for i, r := range tbl.Rows {
		curves := []float64{r.Edit, r.Histo, r.BiBranch2, r.BiBranch3, r.BiBranch4}
		prevCurves := []float64{prev.Edit, prev.Histo, prev.BiBranch2, prev.BiBranch3, prev.BiBranch4}
		for c := range curves {
			if curves[c] < 0 || curves[c] > 100+1e-9 {
				t.Errorf("row %d curve %d out of range: %f", i, c, curves[c])
			}
			if i > 0 && curves[c]+1e-9 < prevCurves[c] {
				t.Errorf("row %d curve %d decreased: %f -> %f", i, c, prevCurves[c], curves[c])
			}
		}
		// A lower bound never exceeds the true distance, so its CDF is ≥
		// the Edit CDF pointwise.
		for c := 1; c < len(curves); c++ {
			if curves[c]+1e-9 < r.Edit {
				t.Errorf("distance %d: bound curve %d (%.1f) below Edit (%.1f)",
					r.Distance, c, curves[c], r.Edit)
			}
		}
		prev = r
	}
	if !strings.Contains(tbl.String(), "BiBranch(3)") {
		t.Error("Fig15 rendering lost a curve header")
	}
}

func TestAblationTables(t *testing.T) {
	cfg := UnitScale()
	pos := AblationPositional(cfg)
	if len(pos.Rows) != 2 {
		t.Fatalf("positional ablation rows: %d", len(pos.Rows))
	}
	for _, r := range pos.Rows {
		// The positional bound dominates the plain bound, so it can never
		// verify more.
		if r.BiBranchPct > r.HistoPct+1e-9 {
			t.Errorf("%s: positional %.2f%% verified more than plain %.2f%%",
				r.X, r.BiBranchPct, r.HistoPct)
		}
		// The plain bound is replayed, not served: it has no time.
		if r.BiBranchTime <= 0 || r.SeqTime != 0 {
			t.Errorf("%s: times %v / %v, want the engine's and none", r.X, r.BiBranchTime, r.SeqTime)
		}
	}
	if out := pos.String(); strings.Contains(out, "x\n") {
		t.Errorf("a replayed column rendered a speedup:\n%s", out)
	}
	qt := AblationQ(cfg)
	if len(qt.Rows) != 3 {
		t.Fatalf("q ablation rows: %d", len(qt.Rows))
	}
	if qt.Rows[0].BiBranchPct > qt.Rows[2].BiBranchPct {
		t.Errorf("q=2 (%.2f%%) should verify no more than q=4 (%.2f%%) on 50-node trees",
			qt.Rows[0].BiBranchPct, qt.Rows[2].BiBranchPct)
	}
}

func TestIOCost(t *testing.T) {
	cfg := UnitScale()
	tbl, err := IOCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("IO cost rows: %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.HistoPct < 99.9 {
			t.Errorf("tau=%s: sequential scan read %.2f%% of pages, want 100%%", r.X, r.HistoPct)
		}
		if r.BiBranchPct > r.HistoPct+1e-9 {
			t.Errorf("tau=%s: filtered read more pages than the scan", r.X)
		}
	}
	// The most selective radius must actually save I/O.
	if tbl.Rows[0].BiBranchPct >= 99 {
		t.Errorf("tau=%s: filtered query read %.2f%% of pages — no I/O saving",
			tbl.Rows[0].X, tbl.Rows[0].BiBranchPct)
	}
}

func TestCSVOutput(t *testing.T) {
	cfg := UnitScale()
	var sb strings.Builder
	if err := RunFormat("13", cfg, &sb, "csv"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "k,bibranch_pct") {
		t.Errorf("csv header missing: %q", out[:40])
	}
	if got := strings.Count(out, "\n"); got != 8 { // header + 7 rows
		t.Errorf("csv has %d lines, want 8", got)
	}
	sb.Reset()
	if err := RunFormat("15", cfg, &sb, "csv"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "distance,edit") {
		t.Error("distribution csv header missing")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := Run("99", UnitScale(), &sb); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := Run("14", UnitScale(), &sb); err != nil {
		t.Errorf("figure 14 failed: %v", err)
	}
}

// tinyScale keeps the all-figure smoke test fast.
func tinyScale() Config {
	return Config{
		DatasetSize:     40,
		Queries:         3,
		Seeds:           6,
		KNNFraction:     0.05,
		RangeFraction:   0.2,
		DistSamplePairs: 30,
		Seed:            1,
	}
}

// TestAllFiguresSmoke runs every figure end to end at a tiny scale,
// checking only structural sanity — each figure's row count and that
// percentages are in range.
func TestAllFiguresSmoke(t *testing.T) {
	cfg := tinyScale()
	figs := []struct {
		name string
		rows int
		tbl  *Table
	}{
		{"Fig08", 4, Fig08(cfg)},
		{"Fig09", 4, Fig09(cfg)},
		{"Fig10", 4, Fig10(cfg)},
		{"Fig11", 4, Fig11(cfg)},
		{"Fig12", 4, Fig12(cfg)},
		{"Fig14", 7, Fig14(cfg)},
	}
	for _, f := range figs {
		if len(f.tbl.Rows) != f.rows {
			t.Errorf("%s: %d rows, want %d", f.name, len(f.tbl.Rows), f.rows)
		}
		for _, r := range f.tbl.Rows {
			if r.BiBranchPct < 0 || r.BiBranchPct > 100+1e-9 ||
				r.HistoPct < 0 || r.HistoPct > 100+1e-9 {
				t.Errorf("%s row %s: percentages out of range (%.2f, %.2f)",
					f.name, r.X, r.BiBranchPct, r.HistoPct)
			}
		}
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	var sb strings.Builder
	if err := RunAll(tinyScale(), &sb); err != nil {
		t.Fatal(err)
	}
	for _, fig := range FigureNames {
		if !strings.Contains(sb.String(), "Figure "+fig) {
			t.Errorf("RunAll output missing figure %s", fig)
		}
	}
}

func TestScalePresets(t *testing.T) {
	p := PaperScale()
	if p.DatasetSize != 2000 || p.Queries != 100 || p.KNNFraction != 0.0025 {
		t.Errorf("PaperScale changed: %+v", p)
	}
	q := QuickScale()
	if q.DatasetSize >= p.DatasetSize {
		t.Error("QuickScale should be smaller than PaperScale")
	}
	cfg := Config{Workers: 3}
	if cfg.workers() != 3 {
		t.Error("explicit worker count ignored")
	}
	if (Config{}).workers() < 1 {
		t.Error("default workers must be positive")
	}
}

func TestDBLPDatasetShape(t *testing.T) {
	cfg := UnitScale()
	ts := DBLPDataset(cfg)
	if len(ts) != cfg.DatasetSize {
		t.Fatalf("dataset size %d", len(ts))
	}
	avgSize, avgHeight := dblp.Stats(ts)
	// The paper's DBLP sample: avg 10.15 nodes, shallow (height 3).
	if avgSize < 7 || avgSize > 14 {
		t.Errorf("avg record size %.2f outside DBLP-like envelope", avgSize)
	}
	if avgHeight < 2.5 || avgHeight > 3.5 {
		t.Errorf("avg record height %.2f outside DBLP-like envelope", avgHeight)
	}
}
