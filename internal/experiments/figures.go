package experiments

import (
	"fmt"
	"math/rand"

	"treesim/internal/datagen"
	"treesim/internal/dblp"
	"treesim/internal/search"
	"treesim/internal/tree"
)

// syntheticSpec builds the Section 5.1 dataset specification with one
// parameter swept.
func syntheticSpec(fanout, size float64, labels int) datagen.Spec {
	return datagen.Spec{
		FanoutMean: fanout, FanoutStd: 0.5,
		SizeMean: size, SizeStd: 2,
		Labels: labels, Decay: 0.05,
	}
}

// rangeRow runs the range-query experiment on one dataset: the radius is
// RangeFraction of the (sampled) average pairwise distance, queries are
// dataset members, and the row reports the accessed-data percentages of
// BiBranch and Histo plus the CPU time of BiBranch search vs. the
// sequential scan.
func (c Config) rangeRow(x string, ts []*tree.Tree, rng *rand.Rand) Row {
	avg := c.avgPairwiseDistance(ts, rng)
	tau := int(avg*c.RangeFraction + 0.5)
	if tau < 1 {
		tau = 1
	}
	return c.rangeRowTau(x, ts, tau, rng)
}

func (c Config) rangeRowTau(x string, ts []*tree.Tree, tau int, rng *rand.Rand) Row {
	row := c.row(x, ts, c.sampleQueries(ts, rng), Query{Tau: tau})
	row.Tau = tau
	return row
}

// knnRow runs the k-NN experiment on one dataset.
func (c Config) knnRow(x string, ts []*tree.Tree, k int, rng *rand.Rand) Row {
	row := c.row(x, ts, c.sampleQueries(ts, rng), Query{KNN: true, K: k})
	row.K = k
	return row
}

// row measures one figure row: the accessed percentages of BiBranch and
// Histo and the result percentage from the replay, the CPU times of
// BiBranch search and of the sequential scan from the engine. Histo is
// not served, so its row is the replay alone.
func (c Config) row(x string, ts, qs []*tree.Tree, op Query) Row {
	bi, sq := search.NewIndex(ts, search.NewBiBranch()), search.NewIndex(ts)
	bib := c.measure(bi, op.filterBound(bi.Filter(), ts), ts, qs, op)
	his := c.measure(nil, HistoBound(ts), ts, qs, op)
	seq := c.measure(sq, op.filterBound(nil, ts), ts, qs, op)
	return Row{
		X:            x,
		BiBranchPct:  bib.pct,
		HistoPct:     his.pct,
		ResultPct:    seq.resultPct,
		BiBranchTime: bib.time,
		SeqTime:      seq.time,
	}
}

// Fig07 — sensitivity to fanout, range queries (dataset N{f,0.5}N{50,2}L8D0.05).
func Fig07(cfg Config) *Table {
	return cfg.fanoutSweep("Figure 7", "Sensitivity to Fanout Variation for Range Queries", false)
}

// Fig08 — sensitivity to fanout, k-NN queries.
func Fig08(cfg Config) *Table {
	return cfg.fanoutSweep("Figure 8", "Sensitivity to Fanout Variation for k-NN Queries", true)
}

func (c Config) fanoutSweep(fig, title string, knn bool) *Table {
	t := &Table{Figure: fig, Title: title, Dataset: "N{f,0.5}N{50,2}L8D0.05", XLabel: "fanout"}
	for _, f := range []float64{2, 4, 6, 8} {
		spec := syntheticSpec(f, 50, 8)
		rng := rand.New(rand.NewSource(c.Seed))
		ts := datagen.New(spec, c.Seed).Dataset(c.DatasetSize, c.Seeds)
		x := fmt.Sprintf("%g", f)
		if knn {
			t.Rows = append(t.Rows, c.knnRow(x, ts, c.k(len(ts)), rng))
		} else {
			t.Rows = append(t.Rows, c.rangeRow(x, ts, rng))
		}
	}
	return t
}

// Fig09 — sensitivity to tree size, range queries (N{4,0.5}N{s,2}L8D0.05).
func Fig09(cfg Config) *Table {
	return cfg.sizeSweep("Figure 9", "Sensitivity to Size of Trees for Range Queries", false)
}

// Fig10 — sensitivity to tree size, k-NN queries.
func Fig10(cfg Config) *Table {
	return cfg.sizeSweep("Figure 10", "Sensitivity to Size of Trees for k-NN Queries", true)
}

func (c Config) sizeSweep(fig, title string, knn bool) *Table {
	t := &Table{Figure: fig, Title: title, Dataset: "N{4,0.5}N{s,2}L8D0.05", XLabel: "tree size"}
	for _, s := range []float64{25, 50, 75, 125} {
		spec := syntheticSpec(4, s, 8)
		rng := rand.New(rand.NewSource(c.Seed))
		ts := datagen.New(spec, c.Seed).Dataset(c.DatasetSize, c.Seeds)
		x := fmt.Sprintf("%g", s)
		if knn {
			t.Rows = append(t.Rows, c.knnRow(x, ts, c.k(len(ts)), rng))
		} else {
			t.Rows = append(t.Rows, c.rangeRow(x, ts, rng))
		}
	}
	return t
}

// Fig11 — sensitivity to the number of labels, range queries
// (N{4,0.5}N{50,2}L{y}D0.05).
func Fig11(cfg Config) *Table {
	return cfg.labelSweep("Figure 11", "Sensitivity to Number of Labels for Range Queries", false)
}

// Fig12 — sensitivity to the number of labels, k-NN queries.
func Fig12(cfg Config) *Table {
	return cfg.labelSweep("Figure 12", "Sensitivity to Number of Labels for k-NN Queries", true)
}

func (c Config) labelSweep(fig, title string, knn bool) *Table {
	t := &Table{Figure: fig, Title: title, Dataset: "N{4,0.5}N{50,2}L{y}D0.05", XLabel: "labels"}
	for _, y := range []int{8, 16, 32, 64} {
		spec := syntheticSpec(4, 50, y)
		rng := rand.New(rand.NewSource(c.Seed))
		ts := datagen.New(spec, c.Seed).Dataset(c.DatasetSize, c.Seeds)
		x := fmt.Sprintf("%d", y)
		if knn {
			t.Rows = append(t.Rows, c.knnRow(x, ts, c.k(len(ts)), rng))
		} else {
			t.Rows = append(t.Rows, c.rangeRow(x, ts, rng))
		}
	}
	return t
}

// DBLPDataset builds the DBLP-like dataset used by Figs. 13–15.
func DBLPDataset(cfg Config) []*tree.Tree {
	return dblp.New(cfg.Seed).Dataset(cfg.DatasetSize)
}

// Fig13 — k-NN searches on DBLP with k swept over the paper's values.
func Fig13(cfg Config) *Table {
	ts := DBLPDataset(cfg)
	avgSize, avgHeight := dblp.Stats(ts)
	t := &Table{
		Figure:  "Figure 13",
		Title:   "k-NN Searches on DBLP",
		Dataset: fmt.Sprintf("DBLP-like, %d records (avg size %.2f, avg height %.2f)", len(ts), avgSize, avgHeight),
		XLabel:  "k",
	}
	for _, k := range []int{5, 7, 10, 12, 15, 17, 20} {
		rng := rand.New(rand.NewSource(cfg.Seed))
		t.Rows = append(t.Rows, cfg.knnRow(fmt.Sprintf("%d", k), ts, k, rng))
	}
	return t
}

// Fig14 — range searches on DBLP with the radius swept over the paper's
// values.
func Fig14(cfg Config) *Table {
	ts := DBLPDataset(cfg)
	t := &Table{
		Figure:  "Figure 14",
		Title:   "Range Searches on DBLP",
		Dataset: fmt.Sprintf("DBLP-like, %d records", len(ts)),
		XLabel:  "range",
	}
	for _, tau := range []int{1, 2, 3, 4, 5, 7, 10} {
		rng := rand.New(rand.NewSource(cfg.Seed))
		t.Rows = append(t.Rows, cfg.rangeRowTau(fmt.Sprintf("%d", tau), ts, tau, rng))
	}
	return t
}
