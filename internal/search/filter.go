// Package search implements the filter-and-refine similarity search
// framework of Section 4: k-NN and range queries over a dataset of trees,
// where a cheap lower bound of the tree edit distance prunes most
// candidates (filter) and the Zhang–Shasha distance verifies the survivors
// (refine). The lower-bound property guarantees completeness: no true
// result is ever filtered out.
//
// The engine serves one filter, the paper's BiBranch with the positional
// bound, and calls it directly. The nil *BiBranch is the sequential scan,
// the timing baseline. The baselines the paper improves on — the histogram
// filter of Kailing et al. and the plain ⌈BDist/Factor⌉ bound — are not
// served: the figures and treesim-analyze replay Algorithm 2 over them.
package search

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"treesim/internal/branch"
	"treesim/internal/editdist"
	"treesim/internal/invfile"
	"treesim/internal/tree"
)

// ParseFilter resolves a filter name as the command-line tools spell it:
// bibranch, bibranch-qN, or none — the sequential scan, which is the nil
// filter. q is the branch level of the spelling that does not carry one.
// Every spelling's level must lie in [branch.MinQ, branch.MaxQ]: a
// snapshot stores no other.
func ParseFilter(name string, q int) (*BiBranch, error) {
	f := &BiBranch{Q: q}
	switch name {
	case "none":
		return nil, nil
	case "bibranch":
	default:
		level, ok := strings.CutPrefix(name, "bibranch-q")
		n, err := strconv.Atoi(level)
		if !ok || err != nil {
			return nil, fmt.Errorf("unknown filter %q (want bibranch, bibranch-qN or none; "+
				"treesim-analyze replays the histo and bibranch-nopos baselines)", name)
		}
		f.Q = n
	}
	if f.Q < branch.MinQ || f.Q > branch.MaxQ {
		return nil, fmt.Errorf("filter %s: branch level q=%d outside [%d, %d]", name, f.Q, branch.MinQ, branch.MaxQ)
	}
	return f, nil
}

// BiBranch is the paper's filter: q-level binary branch vectors with the
// positional lower bound of Section 4.2–4.3. It is a configuration only:
// each segment builds its own branch space, profiles and postings under it
// (see segPayload), so one value may configure any number of indexes. The
// nil *BiBranch is the sequential scan, whose bounder is nil and whose
// every bound is zero.
type BiBranch struct {
	// Q is the branch level, in [branch.MinQ, branch.MaxQ]. The zero value
	// means 2.
	Q int
}

// NewBiBranch returns the standard configuration of the paper: two-level
// branches with the positional bound.
func NewBiBranch() *BiBranch { return &BiBranch{Q: 2} }

// Name identifies the filter in statistics and experiment output; the nil
// filter is "Sequential".
func (f *BiBranch) Name() string {
	if f == nil {
		return "Sequential"
	}
	return "BiBranch"
}

// Factor returns the proven worst-case BDist/EDist ratio 4(q-1)+1
// (Theorem 4.1; 5 for the paper's standard q=2); 0 for the nil filter,
// which has no branch embedding.
func (f *BiBranch) Factor() int {
	if f == nil {
		return 0
	}
	return branch.Factor(f.level())
}

// level returns the branch level Q stands for: MinQ when Q is zero.
func (f *BiBranch) level() int {
	if f.Q == 0 {
		return branch.MinQ
	}
	return f.Q
}

// bounder returns the query's bounder over the segment, with acc, two
// entries per tree of the segment, as its working memory; nil under the
// sequential scan. The query is profiled by lookup only, so queries never
// grow the space. Every tree's branch overlap goes to the first half of
// acc and a bound on its label overlap to the second, the columns levels
// reads. Where the segment has postings, one sweep over the query's branch
// lists and one over its label lists fill them, and the dense labels the
// query carries twice or more are kept for ExactLabel; where it has none
// (the memtable, or a segment past invfile.MaxTrees), fill does it off the
// profiles, exactly, but for the tombstoned locals dead returns, ascending,
// whose columns nothing reads. The labels are counted off the query tree,
// not its profile, which lacks the branches the space never saw although
// their root labels may be known.
func (p *segPayload) bounder(q *tree.Tree, acc []int32, dead func() []int) *biBranchBounder {
	if p.space == nil {
		return nil
	}
	n := len(p.profiles)
	b := &biBranchBounder{p: p, qp: p.space.QueryProfile(q), factor: branch.Factor(p.space.Q()),
		seq: querySeqs{space: p.space, q: q}, ov: acc[:n], lov: acc[n : 2*n]}
	if p.post == nil {
		p.fill(q, b.qp, b.ov, b.lov, dead())
		return b
	}
	var buf [16]branch.LabelCount
	ql := p.space.QueryLabels(q, buf[:0])
	p.post.Overlaps(b.qp, b.ov)
	b.lbase = p.post.LabelOverlaps(ql, b.lov)
	b.dense = p.post.DenseCounts(ql, b.denseBuf[:0])
	return b
}

// fill sets ov[i] to tree i's branch overlap Σ_d min(q_d, t_d) with the
// query profile qp and lov[i] to its label overlap Σ_l min(q_l, t_l) with
// the query q, in one pass over the segment's profiles but the locals dead
// (a memtable that takes inserts and deletes piles them up): the query's
// counts are scattered into arrays indexed by dimension and by root label,
// and each tree sums min over its own dimensions, drawing a label's count
// down as its dimensions take it. The roots are taken after the query
// profile, so they cover its dimensions, and before its labels: a label
// numbered past them roots no dimension of the segment's trees.
func (p *segPayload) fill(q *tree.Tree, qp *branch.Profile, ov, lov []int32, dead []int) {
	root, labels := p.space.Roots()
	var buf [16]branch.LabelCount
	ql := p.space.QueryLabels(q, buf[:0])
	for len(ql) > 0 && int(ql[len(ql)-1].Label) >= labels {
		ql = ql[:len(ql)-1] // labels ascend
	}
	sp := getAcc(&fillPool, len(root)+labels)
	defer fillPool.Put(sp)
	clear(*sp)
	dim, left := (*sp)[:len(root)], (*sp)[len(root):]
	for i, d := range qp.Dims() {
		dim[d] = int32(qp.Count(i))
	}
	for i, t := range p.profiles {
		if len(dead) > 0 && dead[0] == i {
			dead = dead[1:]
			continue
		}
		for _, lc := range ql {
			left[lc.Label] = lc.Count
		}
		var o, lo int32
		for j, d := range t.Dims() {
			c, l := int32(t.Count(j)), root[d]
			take := min(left[l], c)
			o, lo, left[l] = o+min(dim[d], c), lo+take, left[l]-take
		}
		ov[i], lov[i] = o, lo
	}
}

// biBranchBounder bounds the edit distance between one query and a
// segment's trees by the tiers of the engine's cascade, each sound: three
// cheap tiers every tree gets, then the exact label tier, the full bound
// and the sequence tier for the trees the tiers before leave standing.
// The full bound dominates the size and BDist tiers but not the label
// tiers, so the engine keys a tree by the largest bound it computed. It is
// read-only after bounder but for the query's sequences, loaded on first
// use; one query's goroutine is its only reader. The nil bounder, the
// sequential scan's, gives zero for every tier.
type biBranchBounder struct {
	p      *segPayload
	qp     *branch.Profile
	factor int
	// ov[i] is the branch overlap with tree i.
	ov []int32
	// lbase + lov[i] bounds the label overlap with tree i from above, exact
	// where the segment has no postings. dense are the segment's dense
	// labels the query carries 2 to 255 times, whose count columns correct
	// the swept bound to the exact overlap; most queries have a few, so
	// denseBuf holds them.
	lov      []int32
	lbase    int32
	dense    []invfile.DenseCount
	denseBuf [8]invfile.DenseCount
	// seq is the query's side of the sequence tier.
	seq querySeqs
}

// querySeqs is the query's side of the sequence tier in one branch space:
// the space's root label of every dimension and the query's postorder and
// preorder label ids, computed when a tree of the space first reaches the
// tier. The root labels are taken then, after every tree the query sees
// was profiled, so they cover each of those trees' dimensions.
type querySeqs struct {
	loaded    bool
	space     *branch.Space
	q         *tree.Tree
	root      []branch.Label
	post, pre []int32
}

func (s *querySeqs) load() *querySeqs {
	if !s.loaded {
		s.root, _ = s.space.Roots()
		s.post, s.pre = s.space.QuerySequences(s.q)
		s.loaded = true
	}
	return s
}

// seqBuf is one caller's working memory for the sequence tier: a tree's
// label sequence and the banded program's diagonals.
type seqBuf struct {
	ids   []int32
	diags []int
}

// BDist returns the raw binary branch distance to tree i — the BDist
// tier's quantity, and what the tightness metric relates to the exact edit
// distance: |q| + |t| − 2·overlap.
func (b *biBranchBounder) BDist(i int) int {
	return b.qp.Size + int(b.p.sizes[i]) - 2*int(b.ov[i])
}

// colTiers is the cheap tiers' arithmetic over a segment's columns, with
// the query's side of each bound folded into one constant: for a tree of
// size ts whose branch overlap with the query is ov and whose label
// overlap is at most lbase + lov, the size bound ||q|−|t||, ⌈BDist/Factor⌉
// with BDist = |q| + |t| − 2·ov, and ⌈L1/2⌉ over L1 ≥ |q| + |t| −
// 2·(lbase + lov) (one edit operation changes L1 by at most 2). No step branches, so a loop over
// the trees has no branch to mispredict.
type colTiers struct {
	qs    int    // |q|
	bd    int    // |q| + Factor − 1
	lb    int    // |q| − 2·lbase + 1, lbase the sweep's common label credit
	recip uint64 // ⌈2^64/Factor⌉
}

// colTiers returns the query's side of the column arithmetic for the
// bounder's segment.
func (b *biBranchBounder) colTiers() colTiers {
	qs := b.qp.Size
	return colTiers{qs: qs, bd: qs + b.factor - 1, lb: qs - 2*int(b.lbase) + 1, recip: ^uint64(0)/uint64(b.factor) + 1}
}

// at returns one tree's three bounds. ⌈x/Factor⌉ is the high word of
// recip·(x + Factor − 1), exact for every dividend below 2^32 (Lemire,
// Kaser and Kurz, "Faster remainder by direct computation", 2019): a
// branch distance is at most the two trees' sizes summed, and a size
// column holds int32s.
func (c colTiers) at(ts, ov, lov int) (size, bdist, label int) {
	d := c.qs - ts
	size = (d ^ d>>63) - d>>63
	q, _ := bits.Mul64(c.recip, uint64(c.bd+ts-2*ov))
	l := (c.lb + ts - 2*lov) >> 1
	return size, int(q), l &^ (l >> 63)
}

// larger returns the larger of a and b without a branch, for a loop where
// which one it is changes from tree to tree; a − b must not overflow.
func larger(a, b int) int {
	d := a - b
	return a - d&(d>>63)
}

// levels is the cheap tiers over a segment's columns — its size column
// and the query's two overlap columns (see bounder) — the one kernel of
// both query kinds' filter pass, whatever the segment: for every tree i in
// [lo, hi) it writes the tree's level — the largest of its size, BDist and
// label tiers — to out[i−lo] and counts the three in h, which it returns;
// no call, pointer chase or tombstone probe per tree. Every bound is exact.
func (b *biBranchBounder) levels(lo, hi int, out []int32, h tierCounts) tierCounts {
	sizes := b.p.sizes[lo:hi]
	ov, lov, out := b.ov[lo:hi][:len(sizes)], b.lov[lo:hi][:len(sizes)], out[:len(sizes)]
	c := b.colTiers()
	// The counts grow outside the loop that fills them: a tree whose level
	// they lack room for stops it, and the loop resumes at that tree.
	for i := 0; i < len(sizes); {
		for ; i < len(sizes); i++ {
			size, bdist, label := c.at(int(sizes[i]), int(ov[i]), int(lov[i]))
			bdist = larger(size, bdist)
			level := larger(bdist, label)
			out[i] = int32(level)
			if 3*level+2 >= len(h) {
				break
			}
			h[3*size+bySize]++
			h[3*bdist+byBDist]++
			h[3*level+byLevel]++
		}
		if i < len(sizes) {
			h = h.fit(int(out[i]))
		}
	}
	return h
}

// swept returns tree i's three cheap tiers off its segment's columns, as
// levels computes them: for the trees EXPLAIN wants the deciding tier of.
func (b *biBranchBounder) swept(i int) (size, bdist, label int) {
	return b.colTiers().at(int(b.p.sizes[i]), int(b.ov[i]), int(b.lov[i]))
}

// ExactLabel returns the label tier with every label credited exactly,
// ⌈L1/2⌉ with L1 = |q| + |t| − 2·Σ_l min(q_l, t_l) (one edit operation
// changes the label histograms' L1 distance by at most 2): the swept
// overlap less what it over-credited tree i on the query's dense labels,
// read off their count columns (exact unless the query carries a dense
// label more than 255 times, and then still sound). It costs a column read
// per dense label the query carries twice or more, so the engine reads it
// only for the trees the cheap tiers leave standing. A segment without
// postings has no dense labels, and its overlap is exact already.
func (b *biBranchBounder) ExactLabel(i int) int {
	if b == nil {
		return 0
	}
	l1 := b.qp.Size + int(b.p.sizes[i]) - 2*int(b.lbase+b.lov[i]-b.p.post.Excess(b.dense, i))
	return max(0, (l1+1)/2)
}

// Full returns the full bound the scan tightens tree i's key with at
// threshold t, given key, the tree's key under the tiers before: the
// larger of key and KNNBound(i) whenever that is at most t, else a value
// in (t, max(key, KNNBound(i))] — the tree is out, and no threshold,
// which only falls, lets it back in. At a range query's tau that is also
// the key RangeBound(i, tau) gives, for RangeBound ≤ tau exactly when
// KNNBound ≤ tau, and they are then equal (see branch.RangeLowerBound).
// The positional search starts at key, which is at least the tree's
// ⌈BDist/Factor⌉ tier, and stops at t.
func (b *biBranchBounder) Full(i, key, t int) int {
	if b == nil {
		return key
	}
	return branch.SearchLBoundWithin(b.qp, b.p.profiles[i], key, t)
}

// KNNBound returns the filter's full lower bound L ≤ EDist(query, tree i),
// the optimistic bound of Algorithm 2.
func (b *biBranchBounder) KNNBound(i int) int {
	if b == nil {
		return 0
	}
	return branch.SearchLBound(b.qp, b.p.profiles[i])
}

// RangeBound returns a value L such that L > tau implies EDist(query,
// tree i) > tau; range queries prune on it. It tightens KNNBound at a
// known threshold (Section 4.3).
func (b *biBranchBounder) RangeBound(i, tau int) int {
	if b == nil {
		return 0
	}
	lb, _ := branch.RangeLowerBoundWithin(b.qp, b.p.profiles[i], tau)
	return lb
}

// Sequence returns the sequence tier, Guha et al.'s bound on the number of
// edit operations between the query and tree i, capped at k+1: the larger
// of the edit distances between their postorder and their preorder label
// sequences, the tree's read off its profile, the preorder ones only when
// the postorder distance is within k. An operation costs at least 1 under
// every cost model the filter serves, so it bounds the edit distance too.
// It costs O(|t| + k²) and the slides along equal labels, so the engine
// asks for it last, at the threshold of the moment. buf is the caller's
// working memory.
func (b *biBranchBounder) Sequence(i, k int, buf *seqBuf) int {
	if b == nil {
		return 0
	}
	qs, t := b.seq.load(), b.p.profiles[i]
	buf.ids = slices.Grow(buf.ids[:0], t.Size)[:t.Size]
	t.LabelSequence(qs.root, buf.ids, false)
	post, diags := editdist.SeqDist(qs.post, buf.ids, k, buf.diags)
	buf.diags = diags
	if post > k {
		return post
	}
	t.LabelSequence(qs.root, buf.ids, true)
	pre, diags := editdist.SeqDist(qs.pre, buf.ids, k, buf.diags)
	buf.diags = diags
	return max(post, pre)
}
