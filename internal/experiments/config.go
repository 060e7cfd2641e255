// Package experiments regenerates every figure of the paper's evaluation
// (Section 5, Figs. 7–15): the sensitivity studies on synthetic data, the
// DBLP query studies, and the distance-distribution comparison of filter
// lower bounds. Each figure function returns a Table whose rows are the
// series the paper plots — the percentage of accessed data for the
// BiBranch and Histo filters, the CPU time of the filtered search and of
// the sequential scan, and the result-set size.
//
// Absolute timings obviously differ from the paper's 2005 C++/Pentium 4
// setup; the reproduction targets the figure *shapes*: who wins, by what
// factor, and where the trends bend (see EXPERIMENTS.md).
package experiments

import (
	"math/rand"
	"runtime"
	"sync"

	"treesim/internal/editdist"
	"treesim/internal/tree"
)

// Config scales an experiment run.
type Config struct {
	// DatasetSize is the number of trees per dataset (paper: 2000).
	DatasetSize int
	// Queries is the number of random queries averaged (paper: 100).
	Queries int
	// Seeds is the number of seed trees (mutation chains) per synthetic
	// dataset.
	Seeds int
	// KNNFraction sets k = max(1, round(fraction·|D|)) (paper: 0.25%).
	KNNFraction float64
	// RangeFraction sets the range radius τ as a fraction of the average
	// pairwise distance (paper: 1/5).
	RangeFraction float64
	// DistSamplePairs is how many random pairs are sampled to estimate
	// the average pairwise distance.
	DistSamplePairs int
	// Seed drives all random choices.
	Seed int64
	// Workers bounds query parallelism; 0 means GOMAXPROCS.
	Workers int
}

// PaperScale returns the paper's experiment dimensions. A full run at this
// scale takes on the order of hours (it is dominated by the sequential
// scans the paper also ran).
func PaperScale() Config {
	return Config{
		DatasetSize:     2000,
		Queries:         100,
		Seeds:           20,
		KNNFraction:     0.0025,
		RangeFraction:   0.2,
		DistSamplePairs: 500,
		Seed:            1,
	}
}

// QuickScale returns a laptop-scale configuration that preserves the
// figure shapes while keeping the full suite in the minutes range.
func QuickScale() Config {
	return Config{
		DatasetSize:     300,
		Queries:         20,
		Seeds:           12,
		KNNFraction:     0.01,
		RangeFraction:   0.2,
		DistSamplePairs: 150,
		Seed:            1,
	}
}

// UnitScale is a minimal configuration for tests.
func UnitScale() Config {
	return Config{
		DatasetSize:     80,
		Queries:         6,
		Seeds:           8,
		KNNFraction:     0.03,
		RangeFraction:   0.2,
		DistSamplePairs: 60,
		Seed:            1,
	}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// k returns the k-NN parameter for a dataset of size n.
func (c Config) k(n int) int {
	k := int(float64(n)*c.KNNFraction + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

// sampleQueries draws Queries random members of the dataset (the paper
// selects queries randomly from the dataset).
func (c Config) sampleQueries(ts []*tree.Tree, rng *rand.Rand) []*tree.Tree {
	qs := make([]*tree.Tree, c.Queries)
	for i := range qs {
		qs[i] = ts[rng.Intn(len(ts))]
	}
	return qs
}

// avgPairwiseDistance estimates the average tree edit distance over the
// dataset by sampling random pairs.
func (c Config) avgPairwiseDistance(ts []*tree.Tree, rng *rand.Rand) float64 {
	if len(ts) < 2 || c.DistSamplePairs == 0 {
		return 0
	}
	type pair struct{ i, j int }
	pairs := make([]pair, c.DistSamplePairs)
	for n := range pairs {
		i, j := rng.Intn(len(ts)), rng.Intn(len(ts))
		for i == j {
			j = rng.Intn(len(ts))
		}
		pairs[n] = pair{i, j}
	}
	sums := make([]int, c.workers())
	var wg sync.WaitGroup
	chunk := (len(pairs) + len(sums) - 1) / len(sums)
	for w := range sums {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, p := range pairs[lo:hi] {
				sums[w] += editdist.Distance(ts[p.i], ts[p.j])
			}
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, s := range sums {
		total += s
	}
	return float64(total) / float64(len(pairs))
}

// forEachQuery runs fn(i) for every query index i in [0, n) with bounded
// parallelism.
func (c Config) forEachQuery(n int, fn func(i int)) {
	sem := make(chan struct{}, c.workers())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			fn(i)
			<-sem
		}(i)
	}
	wg.Wait()
}
