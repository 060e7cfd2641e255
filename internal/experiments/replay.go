package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"treesim/internal/editdist"
	"treesim/internal/search"
	"treesim/internal/tree"
)

// "% accessed" is what the paper's algorithm verifies under one filter's own
// bound, not what the serving engine happens to verify: the engine stacks
// cheaper tiers in front of the filter's bound and verifies k-NN candidates
// on several workers at once, so its Stats.Verified measures the engine. A
// figure replays the paper's algorithm sequentially over the filter's bound
// for its percentages, and runs the engine only to time each query and to
// check that the two answer alike.

// query is one figure's query kind and parameter.
type query struct {
	knn    bool
	k, tau int
}

func knnQuery(k int) query     { return query{knn: true, k: k} }
func rangeQuery(tau int) query { return query{tau: tau} }

// engine answers q through the serving index.
func (op query) engine(ix *search.Index, q *tree.Tree) ([]search.Result, search.Stats) {
	if op.knn {
		res, st, _ := ix.KNN(context.Background(), q, op.k)
		return res, st
	}
	res, st, _ := ix.Range(context.Background(), q, op.tau)
	return res, st
}

// replay answers q by the paper's algorithm over the bound of f, a filter
// indexed over ts, and counts the trees it verifies. A range query
// verifies every tree whose range bound is at most tau. A k-NN query is
// Algorithm 2: trees in ascending (bound, id) order, each verified under the
// live k-th-best distance until the next bound exceeds it.
func (op query) replay(f search.Filter, ts []*tree.Tree, q *tree.Tree) (accessed int, res []search.Result) {
	b := f.Query(q, make([]int32, 2*len(ts)))
	pq := editdist.Prepare(q)
	if !op.knn {
		for i, t := range ts {
			if b.RangeBound(i, op.tau) > op.tau {
				continue
			}
			accessed++
			if d, ok := pq.Within(t, op.tau, nil); ok {
				res = append(res, search.Result{ID: i, Dist: d})
			}
		}
		sortResults(res)
		return accessed, res
	}
	order := make([]int, len(ts))
	bound := make([]int, len(ts))
	for i := range ts {
		order[i], bound[i] = i, b.KNNBound(i)
	}
	sort.SliceStable(order, func(x, y int) bool { return bound[order[x]] < bound[order[y]] })
	k, cutoff := min(op.k, len(ts)), math.MaxInt
	for _, i := range order {
		if bound[i] > cutoff {
			break
		}
		accessed++
		d, ok := pq.Within(ts[i], cutoff, nil)
		if !ok {
			continue
		}
		res = append(res, search.Result{ID: i, Dist: d})
		sortResults(res)
		if len(res) >= k {
			res = res[:k]
			cutoff = res[k-1].Dist
		}
	}
	return accessed, res
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

// measure runs every query through ix, an index over ts, and through the
// replay over ix's filter. It panics when the two answer differently: the
// figure would then be measuring a broken engine.
func (c Config) measure(ix *search.Index, ts, qs []*tree.Tree, op query) series {
	accessed := make([]int, len(qs))
	results := make([]int, len(qs))
	times := make([]time.Duration, len(qs))
	c.forEachQuery(len(qs), func(i int) {
		got, st := op.engine(ix, qs[i])
		n, want := op.replay(ix.Filter(), ts, qs[i])
		if !slices.Equal(got, want) {
			panic(fmt.Sprintf("experiments: %s answers %v under %+v, the replay %v", ix.Filter().Name(), got, op, want))
		}
		accessed[i], results[i], times[i] = n, len(want), st.Total()
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
