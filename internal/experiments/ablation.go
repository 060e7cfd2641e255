package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

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
// on one synthetic dataset, for k-NN and range queries.
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

	// One refine worker: with several, how many candidates a k-NN query
	// verifies before the k-th-best distance settles depends on timing,
	// and the table compares exactly that count.
	pos := search.NewIndex(ts, &search.BiBranch{Q: 2, Positional: true}, search.WithRefineWorkers(1))
	plain := search.NewIndex(ts, &search.BiBranch{Q: 2, Positional: false}, search.WithRefineWorkers(1))

	t := &Table{
		Figure:  "Ablation: positional bound",
		Title:   "SearchLBound (BiBranch column) vs plain ceil(BDist/5) (Histo column)",
		Dataset: spec.String(),
		XLabel:  "query",
	}
	t.Rows = append(t.Rows,
		ablationRow(cfg, fmt.Sprintf("knn k=%d", k), qs, func(q *tree.Tree) search.Stats {
			_, st, _ := pos.KNN(context.Background(), q, k)
			return st
		}, func(q *tree.Tree) search.Stats {
			_, st, _ := plain.KNN(context.Background(), q, k)
			return st
		}),
		ablationRow(cfg, fmt.Sprintf("range tau=%d", tau), qs, func(q *tree.Tree) search.Stats {
			_, st, _ := pos.Range(context.Background(), q, tau)
			return st
		}, func(q *tree.Tree) search.Stats {
			_, st, _ := plain.Range(context.Background(), q, tau)
			return st
		}),
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

	ref := search.NewIndex(ts, &search.BiBranch{Q: 2, Positional: true})
	t := &Table{
		Figure:  "Ablation: branch level q",
		Title:   "q-level filtering (BiBranch column) vs q=2 reference (Histo column), range queries",
		Dataset: spec.String(),
		XLabel:  "q",
	}
	for _, q := range []int{2, 3, 4} {
		ix := search.NewIndex(ts, &search.BiBranch{Q: q, Positional: true})
		t.Rows = append(t.Rows,
			ablationRow(cfg, fmt.Sprintf("%d", q), qs, func(qt *tree.Tree) search.Stats {
				_, st, _ := ix.Range(context.Background(), qt, tau)
				return st
			}, func(qt *tree.Tree) search.Stats {
				_, st, _ := ref.Range(context.Background(), qt, tau)
				return st
			}))
	}
	return t
}

// ablationRow runs the variant (→ BiBranch column) and the reference
// (→ Histo column) over the query set and aggregates.
func ablationRow(cfg Config, label string, qs []*tree.Tree,
	variant, reference func(*tree.Tree) search.Stats) Row {
	var va, ra search.Stats
	for _, st := range cfg.forEachQuery(qs, variant) {
		va.Add(st)
	}
	for _, st := range cfg.forEachQuery(qs, reference) {
		ra.Add(st)
	}
	n := time.Duration(len(qs))
	return Row{
		X:            label,
		BiBranchPct:  100 * va.AccessedFraction(),
		HistoPct:     100 * ra.AccessedFraction(),
		BiBranchTime: va.Total() / n,
		SeqTime:      ra.Total() / n,
	}
}
