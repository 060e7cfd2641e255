package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/editdist"
	"treesim/internal/storage"
)

// IOCost measures the disk side of filter-and-refine: the dataset trees
// live in a paged store behind an LRU buffer pool, branch vectors stay in
// memory (they are the index), and a range query must fetch from disk
// exactly the trees whose exact distance it computes. Rows sweep the
// range radius; the BiBranch column reports the percentage of data pages
// physically read per filtered query, the Histo column the same for the
// sequential scan (which fetches everything), each against a cold pool.
// This quantifies the paper's closing claim that the pruning power leads
// to "CPU and I/O efficient solutions".
func IOCost(cfg Config) (*Table, error) {
	spec := syntheticSpec(4, 50, 8)
	ts := datagen.New(spec, cfg.Seed).Dataset(cfg.DatasetSize, cfg.Seeds)
	rng := rand.New(rand.NewSource(cfg.Seed))

	dir, err := os.MkdirTemp("", "treesim-io")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "data.tsst")
	if err := storage.Create(path, ts); err != nil {
		return nil, err
	}
	// Size the pool at 1/8 of the data region for realistic partial
	// caching; a probe open discovers the page count.
	probe, err := storage.Open(path, 1)
	if err != nil {
		return nil, err
	}
	poolPages := int(probe.DataPages()/8) + 1
	probe.Close()
	store, err := storage.Open(path, poolPages)
	if err != nil {
		return nil, err
	}
	defer store.Close()

	space := branch.NewSpace(2)
	profiles := space.ProfileAll(ts)
	qs := cfg.sampleQueries(ts, rng)
	dataPages := store.DataPages()

	t := &Table{
		Figure:  "I/O cost",
		Title:   "Data pages read per range query: filtered (BiBranch column) vs sequential scan (Histo column)",
		Dataset: fmt.Sprintf("%s, %d trees, %d data pages, pool %d pages", spec, len(ts), dataPages, poolPages),
		XLabel:  "tau",
	}

	avg := cfg.avgPairwiseDistance(ts, rng)
	taus := []int{1, int(avg*cfg.RangeFraction + 0.5), int(avg + 0.5)}
	for _, tau := range taus {
		if tau < 1 {
			tau = 1
		}
		var filteredReads, seqReads int64
		var filteredTime, seqTime time.Duration

		for _, q := range qs {
			qp := space.Profile(q)

			// Filtered query against a cold pool.
			store.Pool().Drop()
			before := readsOf(store)
			start := time.Now()
			for i := range ts {
				if _, ok := branch.RangeLowerBoundWithin(qp, profiles[i], tau); !ok {
					continue
				}
				dt, err := store.Tree(i)
				if err != nil {
					return nil, err
				}
				editdist.Distance(q, dt)
			}
			filteredTime += time.Since(start)
			filteredReads += readsOf(store) - before

			// Sequential scan against a cold pool.
			store.Pool().Drop()
			before = readsOf(store)
			start = time.Now()
			for i := range ts {
				dt, err := store.Tree(i)
				if err != nil {
					return nil, err
				}
				editdist.Distance(q, dt)
			}
			seqTime += time.Since(start)
			seqReads += readsOf(store) - before
		}

		n := int64(len(qs))
		t.Rows = append(t.Rows, Row{
			X:            fmt.Sprintf("%d", tau),
			Tau:          tau,
			BiBranchPct:  100 * float64(filteredReads) / float64(n*dataPages),
			HistoPct:     100 * float64(seqReads) / float64(n*dataPages),
			BiBranchTime: filteredTime / time.Duration(n),
			SeqTime:      seqTime / time.Duration(n),
		})
	}
	return t, nil
}

func readsOf(s *storage.TreeStore) int64 {
	_, _, physical := s.Pool().Stats()
	return physical
}
