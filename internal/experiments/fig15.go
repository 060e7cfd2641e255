package experiments

import (
	"fmt"
	"math/rand"

	"treesim/internal/branch"
	"treesim/internal/editdist"
	"treesim/internal/tree"
)

// Fig15 — data distribution on distance (Section 5.3). For every query and
// every data tree we compute the exact edit distance and the four filter
// lower bounds (Histo; BiBranch at q = 2, 3, 4 — each binary branch
// distance scaled to its edit-distance bound by Factor(q)), then report
// the cumulative percentage of the dataset whose value is ≤ d for
// d = 1..12, averaged over queries. A good lower bound's curve stays close
// below the Edit curve; a loose one piles mass onto small distances.
func Fig15(cfg Config) *DistTable {
	ts := DBLPDataset(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	qs := cfg.sampleQueries(ts, rng)

	spaces := []*branch.Space{branch.NewSpace(2), branch.NewSpace(3), branch.NewSpace(4)}
	profiles := make([][]*branch.Profile, len(spaces))
	for i, s := range spaces {
		profiles[i] = s.ProfileAll(ts)
	}
	// The histogram bound is the figures' Histo column's, under the
	// equal-space rule (Section 5's fairness rule).
	histo := HistoBound(ts)

	const maxDist = 12
	// counts[m][d] accumulates, per measure m, how many (query, data)
	// pairs have value ≤ d.
	const (
		mEdit = iota
		mHisto
		mBB2
		mBB3
		mBB4
		nMeasures
	)
	var counts [nMeasures][maxDist + 1]int

	type qprofiles struct {
		bb [3]*branch.Profile
		h  func(i int) int
		t  *tree.Tree
	}
	for _, q := range qs {
		qp := qprofiles{t: q, h: histo(q)}
		for i, s := range spaces {
			qp.bb[i] = s.Profile(q)
		}
		dists := cfg.forEachQueryIdx(len(ts), func(i int) [nMeasures]int {
			var v [nMeasures]int
			v[mEdit] = editdist.Distance(qp.t, ts[i])
			v[mHisto] = qp.h(i)
			for s := 0; s < 3; s++ {
				v[mBB2+s] = branch.BDistLowerBound(qp.bb[s], profiles[s][i])
			}
			return v
		})
		for _, v := range dists {
			for m := 0; m < nMeasures; m++ {
				for d := v[m]; d <= maxDist; d++ {
					if d >= 0 {
						counts[m][d]++
					}
				}
			}
		}
	}

	total := float64(len(qs) * len(ts))
	t := &DistTable{
		Figure:  "Figure 15",
		Title:   "Data Distribution on Distance",
		Dataset: fmt.Sprintf("DBLP-like, %d records, %d queries", len(ts), len(qs)),
	}
	for d := 1; d <= maxDist; d++ {
		t.Rows = append(t.Rows, DistRow{
			Distance:  d,
			Edit:      100 * float64(counts[mEdit][d]) / total,
			Histo:     100 * float64(counts[mHisto][d]) / total,
			BiBranch2: 100 * float64(counts[mBB2][d]) / total,
			BiBranch3: 100 * float64(counts[mBB3][d]) / total,
			BiBranch4: 100 * float64(counts[mBB4][d]) / total,
		})
	}
	return t
}

// forEachQueryIdx evaluates fn(0..n-1) with bounded parallelism, returning
// the results in order.
func (c Config) forEachQueryIdx(n int, fn func(i int) [5]int) [][5]int {
	out := make([][5]int, n)
	workers := c.workers()
	chunk := (n + workers - 1) / workers
	done := make(chan struct{}, workers)
	started := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		started++
		go func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = fn(i)
			}
			done <- struct{}{}
		}(lo, hi)
	}
	for i := 0; i < started; i++ {
		<-done
	}
	return out
}
