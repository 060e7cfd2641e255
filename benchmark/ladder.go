package main

import (
	"math"
	"sort"
	"time"

	"treesim/internal/branch"
	"treesim/internal/editdist"
	"treesim/internal/search"
	"treesim/internal/tree"
)

// mirror is the benchmark's own copy of the served dataset, profiled into
// its own branch space: the ladder below replays a query against it, rung
// by rung, through the public functions of each layer. Slots follow the
// dataset ids; a deleted id holds nil.
type mirror struct {
	space    *branch.Space
	trees    []*tree.Tree
	profiles []*branch.Profile
	live     int
}

func newMirror(ix *search.Index) *mirror {
	m := &mirror{space: branch.NewSpace(branch.MinQ)}
	for id := 0; id < ix.Size(); id++ {
		if t, ok := ix.TreeAt(id); ok {
			m.insert(t)
		} else {
			m.trees = append(m.trees, nil)
			m.profiles = append(m.profiles, nil)
		}
	}
	return m
}

// insert appends a tree at the next dataset id.
func (m *mirror) insert(t *tree.Tree) {
	m.trees = append(m.trees, t)
	m.profiles = append(m.profiles, m.space.Profile(t))
	m.live++
}

func (m *mirror) delete(id int) {
	m.trees[id], m.profiles[id] = nil, nil
	m.live--
}

// rungs is the time one query spent on each rung of the ladder, with the
// counts taken at the same boundaries.
type rungs struct {
	start                                         time.Time
	parse, profile, bounds, order, verify, format time.Duration

	trees            int // profiles bounded
	pairs            int // verifications attempted
	prechecked       int // of them, disproven by an O(n) pre-check
	aborted          int // of them, abandoned by the DP
	cells, fullCells int64

	// Side measurements on the same inputs, outside the ladder's sum.
	bdist time.Duration // branch.BDist over every live profile
	full  time.Duration // unbounded editdist.Distance on the verified pairs
}

// match is one answer of the ladder, ordered like the server's results.
type match struct{ id, dist int }

// run replays one query the way the engine answers it, sequentially:
// tree.Parse → Space.Profile → SearchLBound / RangeLowerBound over every
// live profile → sort → DistanceWithin per candidate under the live
// k-th-best / tau cutoff → Tree.String per result.
func (m *mirror) run(rq request) ([]match, rungs, error) {
	t0 := time.Now()
	rg := rungs{start: t0}
	q, err := tree.Parse(rq.tree)
	rg.parse = time.Since(t0)
	if err != nil {
		return nil, rg, err
	}

	t0 = time.Now()
	qp := m.space.Profile(q)
	rg.profile = time.Since(t0)

	t0 = time.Now()
	bounds := make([]int, len(m.profiles))
	cands := make([]int, 0, m.live)
	for id, p := range m.profiles {
		if p == nil {
			continue
		}
		if rq.kind == opKNN {
			bounds[id] = branch.SearchLBound(qp, p)
			cands = append(cands, id)
		} else if bounds[id] = branch.RangeLowerBound(qp, p, rq.arg); bounds[id] <= rq.arg {
			cands = append(cands, id)
		}
	}
	rg.bounds = time.Since(t0)
	rg.trees = m.live

	t0 = time.Now()
	if rq.kind == opKNN {
		sort.Slice(cands, func(x, y int) bool {
			if bx, by := bounds[cands[x]], bounds[cands[y]]; bx != by {
				return bx < by
			}
			return cands[x] < cands[y]
		})
	}
	rg.order = time.Since(t0)

	t0 = time.Now()
	var best []match // ascending (dist, id)
	var verified []int
	cutoff := math.MaxInt
	if rq.kind == opRange {
		cutoff = rq.arg
	}
	for _, id := range cands {
		if rq.kind == opKNN && len(best) == rq.arg && bounds[id] > cutoff {
			break // candidates ascend by bound: nothing later can enter the answer
		}
		var em editdist.Metrics
		d, within := editdist.DistanceWithin(q, m.trees[id], cutoff, editdist.WithMetrics(&em))
		verified = append(verified, id)
		rg.cells += em.Cells
		rg.fullCells += em.FullCells
		if !within {
			if em.Precheck {
				rg.prechecked++
			} else {
				rg.aborted++
			}
			continue
		}
		at := sort.Search(len(best), func(i int) bool {
			return best[i].dist > d || (best[i].dist == d && best[i].id > id)
		})
		best = append(best, match{})
		copy(best[at+1:], best[at:])
		best[at] = match{id, d}
		if rq.kind == opKNN && len(best) >= rq.arg {
			best = best[:rq.arg]
			cutoff = best[rq.arg-1].dist
		}
	}
	rg.verify = time.Since(t0)
	rg.pairs = len(verified)

	t0 = time.Now()
	for _, b := range best {
		_ = m.trees[b.id].String()
	}
	rg.format = time.Since(t0)

	t0 = time.Now()
	for _, p := range m.profiles {
		if p != nil {
			sink += branch.BDist(qp, p)
		}
	}
	rg.bdist = time.Since(t0)
	t0 = time.Now()
	for _, id := range verified {
		sink += editdist.Distance(q, m.trees[id])
	}
	rg.full = time.Since(t0)
	return best, rg, nil
}

// sink keeps the side measurements' results alive.
var sink int
