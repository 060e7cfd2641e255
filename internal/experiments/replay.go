package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"treesim/internal/branch"
	"treesim/internal/editdist"
	"treesim/internal/histogram"
	"treesim/internal/search"
	"treesim/internal/tree"
)

// "% accessed" is what the paper's algorithm verifies under one filter's own
// bound, not what the serving engine verifies: the engine stacks cheaper
// tiers in front of the filter's bound, so its Stats.Verified measures the
// engine. A
// figure replays the paper's algorithm sequentially over the filter's bound
// for its percentages, and runs the engine only to time each query and to
// check that the two answer alike. The baselines the paper improves on —
// the histogram filter and the plain branch bound — have no engine: their
// columns are the replay alone, and treesim-analyze replays them the same
// way.

// Query is one replayed query: a k-NN query for K when KNN is set, a
// range query at Tau otherwise.
type Query struct {
	KNN    bool
	K, Tau int
}

// Engine answers q through the serving index.
func (op Query) Engine(ix *search.Index, q *tree.Tree) ([]search.Result, search.Stats, error) {
	if op.KNN {
		return ix.KNN(context.Background(), q, op.K)
	}
	return ix.Range(context.Background(), q, op.Tau)
}

// Bound is one filter's bound over a dataset: for a query q, the lower
// bound between q and tree i that the query prunes on.
type Bound func(q *tree.Tree) func(i int) int

// filterBound is the bound of the engine's filter f over ts, profiled in a
// fresh space of f's level, that op prunes on: the positional k-NN bound,
// or the range bound at op.Tau; zero for every tree under the nil filter,
// the sequential scan.
func (op Query) filterBound(f *search.BiBranch, ts []*tree.Tree) Bound {
	if f == nil {
		return func(*tree.Tree) func(int) int { return func(int) int { return 0 } }
	}
	space := branch.NewSpace(max(f.Q, branch.MinQ))
	ps := space.ProfileAllParallel(ts, 0)
	return func(qt *tree.Tree) func(int) int {
		qp := space.QueryProfile(qt)
		if op.KNN {
			return func(i int) int { return branch.SearchLBound(qp, ps[i]) }
		}
		return func(i int) int {
			lb, _ := branch.RangeLowerBoundWithin(qp, ps[i], op.Tau)
			return lb
		}
	}
}

// HistoBound is the histogram filter of Kailing et al. over ts under the
// paper's equal-space rule, the same for both query kinds.
func HistoBound(ts []*tree.Tree) Bound {
	cfg := histogram.EqualSpaceFor(ts)
	ps := histogram.ProfileAllConfig(ts, cfg)
	return func(q *tree.Tree) func(int) int {
		qp := histogram.NewProfileConfig(q, cfg)
		return func(i int) int { return histogram.LowerBound(qp, ps[i]) }
	}
}

// PlainBound is the non-positional branch bound ⌈BDist/Factor(q)⌉ over ts,
// profiled in a fresh space of level q: the bound the positional one of
// Section 4.2–4.3 improves on, the same for both query kinds.
func PlainBound(ts []*tree.Tree, q int) Bound {
	space := branch.NewSpace(q)
	ps := space.ProfileAllParallel(ts, 0)
	return func(qt *tree.Tree) func(int) int {
		qp := space.QueryProfile(qt)
		return func(i int) int { return branch.BDistLowerBound(qp, ps[i]) }
	}
}

// Replay answers q by the paper's Algorithm 2 over bound, a filter's bound
// over ts: trees in ascending (bound, id) order, each verified under the
// threshold until the next bound exceeds it — a k-NN query's k-th best
// distance so far, or tau. Its Stats count as candidates the trees whose
// bound does not exceed the final threshold; its filter time is the
// bounds' and the sort's, its refine time the verifications'.
func (op Query) Replay(ts []*tree.Tree, q *tree.Tree, bound Bound) (res []search.Result, st search.Stats) {
	start := time.Now()
	lb := bound(q)
	order := make([]int, len(ts))
	bounds := make([]int, len(ts))
	for i := range ts {
		order[i], bounds[i] = i, lb(i)
	}
	sort.SliceStable(order, func(x, y int) bool { return bounds[order[x]] < bounds[order[y]] })
	st.Dataset = len(ts)
	k, cutoff := min(op.K, len(ts)), math.MaxInt
	if !op.KNN {
		cutoff = op.Tau
	} else if k < 1 {
		return nil, st
	}
	st.FilterTime = time.Since(start)
	start = time.Now()
	pq := editdist.Prepare(q)
	for _, i := range order {
		if bounds[i] > cutoff {
			break
		}
		st.Verified++
		d, ok := pq.Within(ts[i], cutoff, nil)
		if !ok {
			continue
		}
		res = append(res, search.Result{ID: i, Dist: d})
		if op.KNN && len(res) >= k {
			sortResults(res)
			res = res[:k]
			cutoff = res[k-1].Dist
		}
	}
	st.RefineTime = time.Since(start)
	sortResults(res)
	for _, b := range bounds {
		if b <= cutoff {
			st.Candidates++
		}
	}
	st.Results, st.FalsePositives = len(res), st.Verified-len(res)
	return res, st
}

// sortResults orders results by ascending (dist, id), the engine's answer
// order.
func sortResults(rs []search.Result) {
	sort.Slice(rs, func(x, y int) bool {
		if rs[x].Dist != rs[y].Dist {
			return rs[x].Dist < rs[y].Dist
		}
		return rs[x].ID < rs[y].ID
	})
}

// series is one filter's measurements over a query set: the percentage of
// the dataset the replay verified, the results per query as a percentage
// of the dataset, and the engine's mean time per query.
type series struct {
	pct, resultPct float64
	time           time.Duration
}

// measure runs every query through the replay over bound, a filter's bound
// over ts, and, unless ix is nil, through ix, an index over ts, for its
// time. It panics when the two answer differently: the figure would then
// be measuring a broken engine.
func (c Config) measure(ix *search.Index, bound Bound, ts, qs []*tree.Tree, op Query) series {
	accessed := make([]int, len(qs))
	results := make([]int, len(qs))
	times := make([]time.Duration, len(qs))
	c.forEachQuery(len(qs), func(i int) {
		want, rst := op.Replay(ts, qs[i], bound)
		accessed[i], results[i] = rst.Verified, len(want)
		if ix == nil {
			return
		}
		got, st, _ := op.Engine(ix, qs[i])
		if !slices.Equal(got, want) {
			panic(fmt.Sprintf("experiments: %s answers %v under %+v, the replay %v", ix.Filter().Name(), got, op, want))
		}
		times[i] = st.Total()
	})
	var s series
	for i := range qs {
		s.pct += float64(accessed[i])
		s.resultPct += float64(results[i])
		s.time += times[i]
	}
	all := float64(len(qs) * len(ts))
	s.pct, s.resultPct = 100*s.pct/all, 100*s.resultPct/all
	s.time /= time.Duration(len(qs))
	return s
}
