package experiments

import (
	"fmt"
	"math/rand"

	"treesim/internal/datagen"
	"treesim/internal/search"
	"treesim/internal/tree"
)

// Ablations of the design choices DESIGN.md calls out. Each returns a
// Table whose BiBranch column holds the variant under study and whose
// Histo column is reused for the comparison variant, with the row label
// naming the configuration.

// AblationPositional compares the positional optimistic bound
// (SearchLBound / RangeLowerBound) against plain ceil(BDist/5) filtering
// on one synthetic dataset, for k-NN and range queries. The plain bound is
// not served: its column is the replay alone, as Histo's is in a figure,
// with no time.
func AblationPositional(cfg Config) *Table {
	spec := syntheticSpec(4, 50, 8)
	ts := datagen.New(spec, cfg.Seed).Dataset(cfg.DatasetSize, cfg.Seeds)
	rng := rand.New(rand.NewSource(cfg.Seed))
	avg := cfg.avgPairwiseDistance(ts, rng)
	tau := int(avg*cfg.RangeFraction + 0.5)
	if tau < 1 {
		tau = 1
	}
	qs := cfg.sampleQueries(ts, rng)
	k := cfg.k(len(ts))

	pos := search.NewIndex(ts, search.NewBiBranch())
	plain := PlainBound(ts, 2)
	row := func(label string, op Query) Row {
		va := cfg.measure(pos, op.filterBound(pos.Filter(), ts), ts, qs, op)
		ra := cfg.measure(nil, plain, ts, qs, op)
		return Row{X: label, BiBranchPct: va.pct, HistoPct: ra.pct, BiBranchTime: va.time}
	}

	t := &Table{
		Figure:  "Ablation: positional bound",
		Title:   "SearchLBound (BiBranch column) vs plain ceil(BDist/5) (Histo column, replayed)",
		Dataset: spec.String(),
		XLabel:  "query",
	}
	t.Rows = append(t.Rows,
		row(fmt.Sprintf("knn k=%d", k), Query{KNN: true, K: k}),
		row(fmt.Sprintf("range tau=%d", tau), Query{Tau: tau}),
	)
	return t
}

// AblationQ sweeps the branch level q ∈ {2,3,4}: the BiBranch column holds
// q's accessed percentage, the Histo column repeats q=2 as the reference.
func AblationQ(cfg Config) *Table {
	spec := syntheticSpec(4, 50, 8)
	ts := datagen.New(spec, cfg.Seed).Dataset(cfg.DatasetSize, cfg.Seeds)
	rng := rand.New(rand.NewSource(cfg.Seed))
	avg := cfg.avgPairwiseDistance(ts, rng)
	tau := int(avg*cfg.RangeFraction + 0.5)
	if tau < 1 {
		tau = 1
	}
	qs := cfg.sampleQueries(ts, rng)

	ref := search.NewIndex(ts, search.NewBiBranch())
	t := &Table{
		Figure:  "Ablation: branch level q",
		Title:   "q-level filtering (BiBranch column) vs q=2 reference (Histo column), range queries",
		Dataset: spec.String(),
		XLabel:  "q",
	}
	for _, q := range []int{2, 3, 4} {
		ix := search.NewIndex(ts, &search.BiBranch{Q: q})
		t.Rows = append(t.Rows, cfg.ablationRow(fmt.Sprintf("%d", q), ts, qs, Query{Tau: tau}, ix, ref))
	}
	return t
}

// ablationRow measures the variant (→ BiBranch column) and the reference
// (→ Histo column) over the query set, as a figure row measures its filters.
func (c Config) ablationRow(label string, ts, qs []*tree.Tree, op Query, variant, reference *search.Index) Row {
	va := c.measure(variant, op.filterBound(variant.Filter(), ts), ts, qs, op)
	ra := c.measure(reference, op.filterBound(reference.Filter(), ts), ts, qs, op)
	return Row{
		X:            label,
		BiBranchPct:  va.pct,
		HistoPct:     ra.pct,
		BiBranchTime: va.time,
		SeqTime:      ra.time,
	}
}
