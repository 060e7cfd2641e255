package search

import (
	"treesim/internal/branch"
	"treesim/internal/obs"
	"treesim/internal/tree"
)

// PivotBiBranch is a two-stage cascade over the BiBranch filter that
// exploits the pseudometric structure of the binary branch distance
// (Section 3.2: BDist satisfies the triangle inequality). For any pivot
// tree p,
//
//	|BDist(q,p) − BDist(t,p)| ≤ BDist(q,t) ≤ Factor(q)·EDist(q,t)
//
// so with per-tree pivot distances precomputed at index time, a per-pair
// lower bound costs O(#pivots) integer operations — no vector merge at
// all. Candidates that survive the pivot stage fall through to the full
// positional bound. The cascade never weakens the bound, so search results
// stay exact; it trades a little index time and memory (#pivots ints per
// tree) for cheaper filtering of clearly-distant trees.
//
// Pivots are chosen by farthest-first traversal in BDist space, which
// spreads them toward the dataset's extremes.
type PivotBiBranch struct {
	// Q is the branch level (0 means 2).
	Q int
	// Pivots is the number of pivots (0 means 8).
	Pivots int
	// Positional selects the stage-two bound (SearchLBound when true,
	// plain ceil(BDist/Factor) otherwise).
	Positional bool

	inner      *BiBranch
	pivots     []int   // dataset indexes of the chosen pivots
	pivotDists [][]int // pivotDists[p][i] = BDist(pivot p, tree i)
}

// NewPivotBiBranch returns the cascade with default settings (q=2, 8
// pivots, positional stage two).
func NewPivotBiBranch() *PivotBiBranch {
	return &PivotBiBranch{Positional: true}
}

// Name implements Filter.
func (f *PivotBiBranch) Name() string { return "BiBranch-pivot" }

// Fresh implements Fresher: the same cascade configuration over a new
// dataset. The segmented store rebuilds the pivot table per segment at
// compaction, which is what makes this filter appendable.
func (f *PivotBiBranch) Fresh() Filter {
	return &PivotBiBranch{Q: f.Q, Pivots: f.Pivots, Positional: f.Positional}
}

// Factor implements FactorReporter.
func (f *PivotBiBranch) Factor() int {
	q := f.Q
	if q == 0 {
		q = branch.MinQ
	}
	return branch.Factor(q)
}

// Index implements Filter.
func (f *PivotBiBranch) Index(ts []*tree.Tree) {
	f.inner = &BiBranch{Q: f.Q, Positional: f.Positional}
	f.inner.Index(ts)

	nPivots := f.Pivots
	if nPivots <= 0 {
		nPivots = 8
	}
	if nPivots > len(ts) {
		nPivots = len(ts)
	}
	profiles := f.inner.profiles
	f.pivots = f.pivots[:0]
	f.pivotDists = make([][]int, 0, nPivots)
	if len(ts) == 0 {
		return
	}

	// Farthest-first traversal: start from tree 0, then repeatedly pick
	// the tree farthest (in BDist) from all chosen pivots.
	minDist := make([]int, len(ts)) // distance to nearest chosen pivot
	pivot := 0
	for p := 0; p < nPivots; p++ {
		// Pivot selection is sequential (each pivot depends on the last),
		// but a pivot's distance row parallelizes across the dataset.
		row := make([]int, len(ts))
		forEach(len(ts), func(i int) {
			row[i] = branch.BDist(profiles[pivot], profiles[i])
		})
		f.pivots = append(f.pivots, pivot)
		f.pivotDists = append(f.pivotDists, row)
		next, far := 0, -1
		for i := range ts {
			if p == 0 || row[i] < minDist[i] {
				minDist[i] = row[i]
			}
			if minDist[i] > far {
				far, next = minDist[i], i
			}
		}
		if far == 0 {
			break // every tree coincides with a pivot in BDist space
		}
		pivot = next
	}
}

// Query implements Filter.
func (f *PivotBiBranch) Query(q *tree.Tree) Bounder {
	qp := f.inner.space.QueryProfile(q)
	qDist := make([]int, len(f.pivots))
	for p, idx := range f.pivots {
		qDist[p] = branch.BDist(qp, f.inner.profiles[idx])
	}
	fac := branch.Factor(f.inner.space.Q())
	return &pivotBounder{f: f, qp: qp, qDist: qDist, factor: fac}
}

// pivotBounder runs its own two-stage cascade inside KNNBound and
// RangeBound, so to the engine it is a single tier.
type pivotBounder struct {
	singleTier
	f      *PivotBiBranch
	qp     *branch.Profile
	qDist  []int
	factor int

	// Per-query stage counters for the trace layer: how often the cheap
	// pivot screen settled the bound alone versus falling through to the
	// stage-two vector merge. A bounder serves one query on one goroutine,
	// so plain ints suffice.
	pivotPruned int
	stage2Evals int
}

// ReportAttrs implements AttrReporter: the cascade's effectiveness for
// this query, attached to its filter span.
func (b *pivotBounder) ReportAttrs(sp *obs.Span) {
	sp.SetInt("pivots", int64(len(b.qDist)))
	sp.SetInt("pivot_pruned", int64(b.pivotPruned))
	sp.SetInt("stage2_evals", int64(b.stage2Evals))
}

// BDist implements BDister: the raw branch distance to tree i (a stage-two
// vector merge; used only for EXPLAIN tightness sampling).
func (b *pivotBounder) BDist(i int) int {
	return branch.BDist(b.qp, b.f.inner.profiles[i])
}

// pivotBound returns ceil(max_p |BDist(q,p) − BDist(t_i,p)| / Factor(q)).
func (b *pivotBounder) pivotBound(i int) int {
	best := 0
	for p, qd := range b.qDist {
		d := qd - b.f.pivotDists[p][i]
		if d < 0 {
			d = -d
		}
		if d > best {
			best = d
		}
	}
	return (best + b.factor - 1) / b.factor
}

func (b *pivotBounder) stage2(i int) int {
	if b.f.inner.Positional {
		return branch.SearchLBound(b.qp, b.f.inner.profiles[i])
	}
	return branch.BDistLowerBound(b.qp, b.f.inner.profiles[i])
}

// KNNBound combines both stages: the pivot bound is free-ish, and stage
// two only ever tightens it.
func (b *pivotBounder) KNNBound(i int) int {
	pb := b.pivotBound(i)
	b.stage2Evals++
	if s2 := b.stage2(i); s2 > pb {
		return s2
	}
	return pb
}

// RangeBound prunes on the pivot bound alone when it already exceeds tau,
// avoiding the vector merge entirely; otherwise it falls through to the
// full bound.
func (b *pivotBounder) RangeBound(i, tau int) int {
	if pb := b.pivotBound(i); pb > tau {
		b.pivotPruned++
		return pb
	}
	b.stage2Evals++
	if b.f.inner.Positional {
		lb, _ := branch.RangeLowerBoundWithin(b.qp, b.f.inner.profiles[i], tau)
		return lb
	}
	return branch.BDistLowerBound(b.qp, b.f.inner.profiles[i])
}
