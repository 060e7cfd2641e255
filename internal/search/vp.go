package search

import (
	"treesim/internal/branch"
	"treesim/internal/obs"
	"treesim/internal/tree"
	"treesim/internal/vptree"
)

// CandidateLister is an optional Bounder capability: produce the candidate
// set of a range query directly, instead of having the engine test a
// lower bound for every indexed tree. The returned set must be a superset
// of the true result set (soundness); the engine still applies RangeBound
// and the exact distance to every candidate.
type CandidateLister interface {
	RangeCandidates(tau int) []int
}

// VPBiBranch is the BiBranch filter with a vantage-point tree over the
// BDist pseudometric. Because EDist(q,t) ≤ τ implies
// BDist(q,t) ≤ Factor(q)·τ (Theorem 3.2/3.3), the BDist ball of radius
// Factor(q)·τ around the query is a sound candidate set for an
// edit-distance range query — and the VP-tree finds it while touching only
// part of the collection. k-NN queries fall back to the plain BiBranch
// bounds (Algorithm 2 needs a bound for every object anyway).
type VPBiBranch struct {
	// Q is the branch level (0 means 2).
	Q int
	// Positional selects the stage-two bound for surviving candidates.
	Positional bool
	// Seed drives vantage-point sampling.
	Seed int64

	inner *BiBranch
	vt    *vptree.Tree
}

// NewVPBiBranch returns the VP-tree accelerated filter with defaults
// (q=2, positional bounds).
func NewVPBiBranch() *VPBiBranch { return &VPBiBranch{Positional: true} }

// Name implements Filter.
func (f *VPBiBranch) Name() string { return "BiBranch-vptree" }

// Fresh implements Fresher: the same configuration over a new dataset.
// The segmented store rebuilds the VP-tree per segment at compaction,
// which is what makes this filter appendable.
func (f *VPBiBranch) Fresh() Filter {
	return &VPBiBranch{Q: f.Q, Positional: f.Positional, Seed: f.Seed}
}

// Index implements Filter.
func (f *VPBiBranch) Index(ts []*tree.Tree) {
	f.inner = &BiBranch{Q: f.Q, Positional: f.Positional}
	f.inner.Index(ts)
	ids := make([]int, len(ts))
	for i := range ids {
		ids[i] = i
	}
	profiles := f.inner.profiles
	f.vt = vptree.Build(ids, func(a, b int) int {
		return branch.BDist(profiles[a], profiles[b])
	}, f.Seed+1)
}

// Query implements Filter.
func (f *VPBiBranch) Query(q *tree.Tree) Bounder {
	return &vpBounder{
		f:     f,
		inner: f.inner.Query(q).(*biBranchBounder),
	}
}

type vpBounder struct {
	f     *VPBiBranch
	inner *biBranchBounder

	// distEvals counts BDist evaluations the VP-tree walk performed — the
	// sub-linearity evidence a trace reports (compare against the dataset
	// size). One query, one goroutine, so a plain int.
	distEvals int
}

func (b *vpBounder) CheapBounds(i int) (size, bdist int) { return b.inner.CheapBounds(i) }

func (b *vpBounder) KNNBound(i int) int { return b.inner.KNNBound(i) }

func (b *vpBounder) RangeBound(i, tau int) int { return b.inner.RangeBound(i, tau) }

// BDist implements BDister (delegated to the wrapped BiBranch bounder).
func (b *vpBounder) BDist(i int) int { return b.inner.BDist(i) }

// Factor implements FactorReporter.
func (f *VPBiBranch) Factor() int {
	q := f.Q
	if q == 0 {
		q = branch.MinQ
	}
	return branch.Factor(q)
}

// ReportAttrs implements AttrReporter.
func (b *vpBounder) ReportAttrs(sp *obs.Span) {
	sp.SetInt("vptree_dist_evals", int64(b.distEvals))
}

// RangeCandidates implements CandidateLister: all trees within BDist
// radius Factor(q)·tau of the query, found through the VP-tree.
func (b *vpBounder) RangeCandidates(tau int) []int {
	radius := b.inner.factor * tau
	var out []int
	b.f.vt.Range(func(id int) int {
		b.distEvals++
		return b.inner.BDist(id)
	}, radius, func(id int) {
		out = append(out, id)
	})
	return out
}
