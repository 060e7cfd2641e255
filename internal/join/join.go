// Package join implements approximate (similarity) joins on tree
// collections — one of the core database manipulations the paper motivates
// (Section 1; cf. Guha et al.'s approximate XML joins, reference [15]).
//
// A similarity join at threshold τ returns every pair of trees within tree
// edit distance τ. The nested-loop join evaluates |R|·|S| exact distances;
// here the binary branch lower bound (Sections 3–4) prunes a pair unless
// its optimistic bound is ≤ τ — decided by branch.RangeLowerBoundWithin,
// whose size, branch-distance and positional tests each stop at τ — and
// only survivors pay the Zhang–Shasha distance, verified against the outer
// row's tree prepared once (editdist.Prepare). Results are exact.
package join

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"treesim/internal/branch"
	"treesim/internal/editdist"
	"treesim/internal/tree"
)

// Pair is one join result: indexes into the joined collections and the
// exact edit distance.
type Pair struct {
	R, S int
	Dist int
}

// Stats describes the pruning achieved by a join.
type Stats struct {
	Pairs    int // candidate pairs considered (|R|·|S| or the self-join triangle)
	Verified int // pairs whose exact distance was computed
	Results  int // pairs within the threshold
}

// Options tunes a join.
type Options struct {
	// Q is the branch level (0 means 2).
	Q int
	// Workers bounds parallelism (≤ 0 means GOMAXPROCS).
	Workers int
	// Cost is the refine cost model (nil means unit costs). Filtering
	// remains exact as long as every operation costs at least 1.
	Cost editdist.CostModel
}

// SelfJoin returns every unordered pair (i < j) of trees within edit
// distance tau.
func SelfJoin(ts []*tree.Tree, tau int, opts Options) ([]Pair, Stats) {
	profiles, cost := prepare(ts, &opts)
	var out []Pair
	var mu sync.Mutex
	var verified int64
	parallelFor(len(ts), opts.Workers, func(i int) {
		var local []Pair
		q := editdist.Prepare(ts[i], editdist.WithCost(cost))
		for j := i + 1; j < len(ts); j++ {
			if _, ok := branch.RangeLowerBoundWithin(profiles[i], profiles[j], tau); !ok {
				continue
			}
			atomic.AddInt64(&verified, 1)
			if d, ok := q.Within(ts[j], tau, nil); ok {
				local = append(local, Pair{R: i, S: j, Dist: d})
			}
		}
		if len(local) > 0 {
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}
	})
	sortPairs(out)
	return out, Stats{
		Pairs:    len(ts) * (len(ts) - 1) / 2,
		Verified: int(verified),
		Results:  len(out),
	}
}

// Join returns every pair (r ∈ R, s ∈ S) within edit distance tau. The two
// collections share one branch space so their vectors are comparable.
func Join(rs, ss []*tree.Tree, tau int, opts Options) ([]Pair, Stats) {
	q := opts.Q
	if q == 0 {
		q = branch.MinQ
	}
	space := branch.NewSpace(q)
	rp := space.ProfileAllParallel(rs, opts.Workers)
	sp := space.ProfileAllParallel(ss, opts.Workers)
	cost := opts.Cost
	if cost == nil {
		cost = editdist.UnitCost{}
	}

	var out []Pair
	var mu sync.Mutex
	var verified int64
	parallelFor(len(rs), opts.Workers, func(i int) {
		var local []Pair
		q := editdist.Prepare(rs[i], editdist.WithCost(cost))
		for j := range ss {
			if _, ok := branch.RangeLowerBoundWithin(rp[i], sp[j], tau); !ok {
				continue
			}
			atomic.AddInt64(&verified, 1)
			if d, ok := q.Within(ss[j], tau, nil); ok {
				local = append(local, Pair{R: i, S: j, Dist: d})
			}
		}
		if len(local) > 0 {
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}
	})
	sortPairs(out)
	return out, Stats{
		Pairs:    len(rs) * len(ss),
		Verified: int(verified),
		Results:  len(out),
	}
}

func prepare(ts []*tree.Tree, opts *Options) ([]*branch.Profile, editdist.CostModel) {
	q := opts.Q
	if q == 0 {
		q = branch.MinQ
	}
	space := branch.NewSpace(q)
	profiles := space.ProfileAllParallel(ts, opts.Workers)
	cost := opts.Cost
	if cost == nil {
		cost = editdist.UnitCost{}
	}
	return profiles, cost
}

func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sortPairs orders results by (R, S) for deterministic output across
// worker schedules.
func sortPairs(ps []Pair) {
	sort.Slice(ps, func(x, y int) bool {
		if ps[x].R != ps[y].R {
			return ps[x].R < ps[y].R
		}
		return ps[x].S < ps[y].S
	})
}
