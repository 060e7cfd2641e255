// Package search implements the filter-and-refine similarity search
// framework of Section 4: k-NN and range queries over a dataset of trees,
// where a cheap lower bound of the tree edit distance prunes most
// candidates (filter) and the Zhang–Shasha distance verifies the survivors
// (refine). The lower-bound property guarantees completeness: no true
// result is ever filtered out.
//
// Filters are pluggable. The paper's contribution is the BiBranch filter
// (binary branch vectors with the positional SearchLBound optimistic
// bound); Histo is the histogram baseline of Kailing et al.; None disables
// filtering and degenerates to the sequential scan used as the timing
// baseline.
package search

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"treesim/internal/branch"
	"treesim/internal/editdist"
	"treesim/internal/histogram"
	"treesim/internal/invfile"
	"treesim/internal/tree"
)

// Filter preprocesses a dataset once and then produces a Bounder per query.
// The interface is sealed to this package: the segmented store needs every
// filter to grow by one tree, to be rebuilt over a compacted segment and to
// freeze a prefix of itself, and the three families here all do.
type Filter interface {
	// Name identifies the filter in statistics and experiment output.
	Name() string
	// Index preprocesses the dataset (e.g. builds branch vectors).
	Index(ts []*tree.Tree)
	// Query preprocesses one query tree and returns its bounder. acc has
	// two entries per indexed tree: working memory the bounder may keep
	// until the query ends (BiBranch sweeps its branch postings into the
	// first half and its label postings into the second).
	Query(q *tree.Tree, acc []int32) Bounder
	// Append extends the indexed state with one more tree, at the next
	// dataset position: an insert into the memtable.
	Append(t *tree.Tree)
	// Fresh returns an empty filter of the same configuration, ready to
	// Index a new dataset: a new memtable, or a compacted segment.
	Fresh() Filter
	// snapshotAt freezes the first n indexed entries into a read-only
	// filter that stays valid while the original keeps appending
	// (slice-header copies, never data copies). With seal set the
	// snapshot becomes a sealed segment's filter for good, and builds
	// what a sealed segment keeps: BiBranch's postings, O(n).
	snapshotAt(n int, seal bool) Filter
}

// Bounder computes edit-distance lower bounds between one query and the
// indexed trees, as the tiers of the engine's bound cascade: three cheap
// bounds every tree gets, then the exact label tier and the filter's full
// bound, which the engine only asks for when the cheap ones leave a tree
// standing. Every tier is a sound lower bound, so no tier prunes a tree
// within the answer. The full bound dominates the size and BDist tiers but
// not the label tiers, which may exceed it: the engine keys a tree by the
// largest bound it computed.
type Bounder interface {
	// CheapBounds returns the cheap tiers' lower bounds on EDist(query,
	// tree i): the size bound ||q|−|t||, the plain branch-distance bound
	// ⌈BDist/Factor⌉ and the label-histogram bound ⌈L1/2⌉ (Kailing et
	// al.), the first two neither above KNNBound(i) nor — when at most tau
	// — above RangeBound(i, tau). A filter without a tier returns zero for
	// it. Past limit a bound need not be exact: a size bound above it comes
	// back with bdist and label zero, a bdist above it with label zero, and
	// may itself be any bound in (limit, ⌈BDist/Factor⌉]. noLimit asks for
	// exact ones. A segment whose BDist was swept from postings (every
	// sealed one) reads it off the query's accumulator, so its bdist is
	// always exact; only the memtable's merge-join stops at limit. Only a
	// swept segment has a label tier, and its cheap label bound credits
	// every carrier of a dense label (see invfile) with the query's full
	// count of it.
	CheapBounds(i, limit int) (size, bdist, label int)
	// ExactLabel returns the label tier with every label credited exactly:
	// ⌈(|q| + |t| − 2·Σ_l min(q_l, t_l))/2⌉, never below CheapBounds'
	// label, from the dense labels' count columns. It is exact unless the
	// query carries a dense label more than 255 times, and then still a
	// sound bound. It costs a column read per dense label the query carries
	// twice or more, so the engine reads it only for the trees the cheap
	// tiers leave standing. A filter without a label tier returns zero.
	ExactLabel(i int) int
	// KNNBound returns the filter's full lower bound L ≤ EDist(query, tree
	// i), used as the optimistic bound of Algorithm 2.
	KNNBound(i int) int
	// RangeBound returns a value L such that L > tau implies
	// EDist(query, tree i) > tau; range queries prune on it. For most
	// filters it coincides with KNNBound, but the positional filter can
	// tighten it at a known threshold (Section 4.3).
	RangeBound(i, tau int) int
	// Sequence returns the sequence tier, Guha et al.'s bound on the
	// number of edit operations between the query and tree i, capped at
	// k+1: exact when at most k, otherwise only k+1, which is still a
	// lower bound. An operation costs at least 1 under every cost model a
	// filter other than None serves, so it bounds the edit distance too.
	// It is the last tier before verification and costs O(|t| + k²) and
	// the slides along equal labels, so the engine asks for it only for
	// the trees every other tier leaves standing, at the threshold of the
	// moment. buf is the caller's working memory. Only the positional
	// BiBranch has the tier; the others return zero.
	Sequence(i, k int, buf *seqBuf) int
}

// ParseFilter resolves a filter name as the command-line tools spell it:
// bibranch, bibranch-nopos, bibranch-qN (N ≥ 2), histo or none. q is the
// branch level of the two bibranch spellings that do not carry one.
func ParseFilter(name string, q int) (Filter, error) {
	switch name {
	case "bibranch":
		return &BiBranch{Q: q, Positional: true}, nil
	case "bibranch-nopos":
		return &BiBranch{Q: q, Positional: false}, nil
	case "histo":
		return NewHisto(), nil
	case "none":
		return NewNone(), nil
	}
	if level, ok := strings.CutPrefix(name, "bibranch-q"); ok {
		if n, err := strconv.Atoi(level); err == nil && n >= branch.MinQ {
			return &BiBranch{Q: n, Positional: true}, nil
		}
	}
	return nil, fmt.Errorf("unknown filter %q (want bibranch, bibranch-nopos, bibranch-qN, histo or none)", name)
}

// noLimit is the CheapBounds limit that asks for exact bounds.
const noLimit = math.MaxInt

// singleTier is embedded by the bounders of filters that have one bound
// and nothing cheaper in front of it: both cheap tiers let every tree
// through, and the filter's bound is the cascade's only tier.
type singleTier struct{}

func (singleTier) CheapBounds(_, _ int) (size, bdist, label int) { return 0, 0, 0 }

func (singleTier) ExactLabel(int) int { return 0 }

func (singleTier) Sequence(_, _ int, _ *seqBuf) int { return 0 }

// BiBranch is the paper's filter: q-level binary branch vectors with,
// optionally, the positional lower bound of Section 4.2–4.3.
type BiBranch struct {
	// Q is the branch level (≥ 2). The zero value means 2.
	Q int
	// Positional selects the positional optimistic bound (SearchLBound /
	// RangeLowerBound); when false the plain ceil(BDist/Factor(q)) bound
	// is used — the ablation of DESIGN.md.
	Positional bool

	space    *branch.Space
	profiles []*branch.Profile
	// post is the inverted file over profiles (Algorithm 1) that a sealed
	// segment's BDist and label tiers sweep; nil in the memtable, which
	// grows by Append, merge-joins per tree instead and has no label tier.
	post *invfile.Index
}

// postingsOf builds the inverted file over a sealed segment's profiles:
// nil for an empty segment, or one too large for a posting's tree bits,
// which then merge-joins per tree like the memtable.
func postingsOf(ps []*branch.Profile) *invfile.Index {
	if len(ps) == 0 || len(ps) > invfile.MaxTrees {
		return nil
	}
	return invfile.Build(ps)
}

// NewBiBranch returns the standard configuration of the paper: two-level
// branches with the positional bound.
func NewBiBranch() *BiBranch { return &BiBranch{Q: 2, Positional: true} }

// Name implements Filter.
func (f *BiBranch) Name() string {
	if f.Positional {
		return "BiBranch"
	}
	return "BiBranch-nopos"
}

// Index implements Filter: profiles the dataset into flat per-block
// arrays and builds the postings over them.
func (f *BiBranch) Index(ts []*tree.Tree) {
	f.space = branch.NewSpace(f.level())
	f.profiles = f.space.ProfileAllParallel(ts, 0)
	f.post = postingsOf(f.profiles)
}

// Append implements Filter: profiles the new tree into the existing
// space. Only the memtable's filter grows, and it has no postings.
func (f *BiBranch) Append(t *tree.Tree) {
	f.profiles = append(f.profiles, f.space.Profile(t))
}

// Fresh implements Filter.
func (f *BiBranch) Fresh() Filter { return &BiBranch{Q: f.Q, Positional: f.Positional} }

// snapshotAt freezes the first n profiles. The branch space is shared —
// it is internally synchronized and only ever grows — and the profile
// slice is capped at n, so appends to the live filter never show through.
// A seal also builds the postings: under the store's lock, once per
// MemtableSize inserts.
func (f *BiBranch) snapshotAt(n int, seal bool) Filter {
	g := &BiBranch{Q: f.Q, Positional: f.Positional, space: f.space, profiles: f.profiles[:n:n]}
	if seal {
		g.post = postingsOf(g.profiles)
	}
	return g
}

// Query implements Filter. The query is profiled by lookup only — a branch
// no indexed tree contains needs no dimension — so queries never grow the
// space. Where the filter has postings, one sweep over the query's branch
// lists leaves every tree's branch overlap in the first half of acc, and
// one over its label lists a bound on every tree's label overlap in the
// second; the dense labels the query carries twice or more are kept for
// ExactLabel. The query's labels are counted off the query tree, node by
// node, never off its profile: a branch the space never saw has no
// coordinate there, but the label it is rooted at may be known, and
// leaving it out would overstate the bound. The non-positional ablation
// measures ⌈BDist/Factor⌉ alone and sweeps no labels.
func (f *BiBranch) Query(q *tree.Tree, acc []int32) Bounder {
	b := &biBranchBounder{f: f, qp: f.space.QueryProfile(q), factor: f.Factor()}
	if f.Positional {
		b.seq = &querySeqs{space: f.space, q: q}
	}
	if f.post != nil {
		n := len(f.profiles)
		b.ov = acc[:n]
		f.post.Overlaps(b.qp, b.ov)
		if f.Positional {
			var buf [16]branch.LabelCount
			ql := f.space.QueryLabels(q, buf[:0])
			b.lov = acc[n : 2*n]
			b.lbase = f.post.LabelOverlaps(ql, b.lov)
			b.dense = f.post.DenseCounts(ql, b.denseBuf[:0])
		}
	}
	return b
}

// Factor returns the proven worst-case BDist/EDist ratio 4(q-1)+1
// (Theorem 4.1; 5 for the paper's standard q=2).
func (f *BiBranch) Factor() int { return branch.Factor(f.level()) }

// level returns the branch level Q stands for: MinQ when Q is zero.
func (f *BiBranch) level() int {
	if f.Q == 0 {
		return branch.MinQ
	}
	return f.Q
}

// biBranchBounder is read-only after Query, so one serves every shard of
// a query.
type biBranchBounder struct {
	f      *BiBranch
	qp     *branch.Profile
	factor int
	// ov[i] is the branch overlap with tree i, swept from the segment's
	// postings; nil where the segment has none.
	ov []int32
	// lbase + lov[i] bounds the label overlap with tree i from above,
	// swept from the segment's label postings; lov is nil where the
	// segment has no label tier. dense are the segment's dense labels the
	// query carries 2 to 255 times, whose count columns correct that bound
	// to the exact overlap; most queries have a few, so denseBuf holds them.
	lov      []int32
	lbase    int32
	dense    []invfile.DenseCount
	denseBuf [8]invfile.DenseCount
	// seq is the query's side of the sequence tier, which bounders over
	// one space share; nil in the non-positional ablation.
	seq *querySeqs
}

// querySeqs is the query's side of the sequence tier in one branch space:
// the space's root label of every dimension and the query's postorder and
// preorder label ids, computed when a tree of the space first reaches the
// tier. The root labels are taken then, after every tree the query sees
// was profiled, so they cover each of those trees' dimensions.
type querySeqs struct {
	once      sync.Once
	space     *branch.Space
	q         *tree.Tree
	root      []branch.Label
	post, pre []int32
}

func (s *querySeqs) load() *querySeqs {
	s.once.Do(func() {
		s.root, _ = s.space.Roots()
		s.post, s.pre = s.space.QuerySequences(s.q)
	})
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
// distance: |q| + |t| − 2·overlap off the sweep, or a merge-join in a
// segment without postings.
func (b *biBranchBounder) BDist(i int) int {
	if b.ov != nil {
		return b.qp.Size + b.f.profiles[i].Size - 2*int(b.ov[i])
	}
	return branch.BDist(b.qp, b.f.profiles[i])
}

// plain returns ⌈BDist/Factor⌉, the non-positional bound.
func (b *biBranchBounder) plain(i int) int {
	return (b.BDist(i) + b.factor - 1) / b.factor
}

// label returns the label-histogram bound ⌈L1/2⌉ for a label overlap of at
// most ov with tree i, L1 ≥ |q| + |t| − 2·ov: one edit operation changes
// L1 by at most 2.
func (b *biBranchBounder) label(i int, ov int32) int {
	l1 := b.qp.Size + b.f.profiles[i].Size - 2*int(ov)
	return max(0, (l1+1)/2)
}

// CheapBounds implements Bounder. The non-positional filter is the plain
// branch-distance bound by definition (the ablation of DESIGN.md), so it
// has neither a size nor a label tier: ⌈BDist/Factor⌉ dominates neither.
func (b *biBranchBounder) CheapBounds(i, limit int) (size, bdist, label int) {
	t := b.f.profiles[i]
	if b.f.Positional {
		if size = b.qp.Size - t.Size; size < 0 {
			size = -size
		}
		if size > limit {
			return size, 0, 0
		}
	}
	var d int
	if b.ov != nil {
		d = b.BDist(i)
	} else {
		// BDist ≤ |q|+|t|: a cap there cannot stop the join, nor overflow.
		d, _ = branch.BDistWithin(b.qp, t, min(limit, b.qp.Size+t.Size)*b.factor)
	}
	bdist = (d + b.factor - 1) / b.factor
	if b.lov == nil || bdist > limit {
		return size, bdist, 0
	}
	return size, bdist, b.label(i, b.lbase+b.lov[i])
}

// ExactLabel implements Bounder: the swept overlap less what it
// over-credited tree i on the query's dense labels.
func (b *biBranchBounder) ExactLabel(i int) int {
	if b.lov == nil {
		return 0
	}
	return b.label(i, b.lbase+b.lov[i]-b.f.post.Excess(b.dense, i))
}

func (b *biBranchBounder) KNNBound(i int) int {
	if b.f.Positional {
		return branch.SearchLBound(b.qp, b.f.profiles[i])
	}
	return b.plain(i)
}

func (b *biBranchBounder) RangeBound(i, tau int) int {
	if b.f.Positional {
		lb, _ := branch.RangeLowerBoundWithin(b.qp, b.f.profiles[i], tau)
		return lb
	}
	return b.plain(i)
}

// Sequence implements Bounder: the larger of the edit distances between
// the query's and tree i's postorder and preorder label sequences, capped
// at k+1, the tree's read off its profile; the preorder ones are read and
// compared only when the postorder distance is within k.
func (b *biBranchBounder) Sequence(i, k int, buf *seqBuf) int {
	if b.seq == nil {
		return 0
	}
	qs, t := b.seq.load(), b.f.profiles[i]
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

// Histo is the histogram filtration baseline (Kailing et al.): the maximum
// of the label, degree, height and size lower bounds. Following the
// paper's equal-space rule, the three histograms together are given as
// many dimensions as the average binary branch representation (the average
// branch vector size plus two average tree sizes), unless an explicit
// Config is set.
type Histo struct {
	// Config overrides the folding configuration; the zero value selects
	// the equal-space rule at Index time.
	Config histogram.Config

	cfg      histogram.Config
	profiles []*histogram.Profile
}

// NewHisto returns the histogram filter with the paper's equal-space
// sizing.
func NewHisto() *Histo { return &Histo{} }

// Name implements Filter.
func (f *Histo) Name() string { return "Histo" }

// Index implements Filter.
func (f *Histo) Index(ts []*tree.Tree) {
	if f.Config != (histogram.Config{}) {
		f.cfg = f.Config
	} else {
		// Equal-space rule: a branch vector has at most |T| non-zero
		// dimensions and stores two positions per node, so its space is
		// ≈ 3·|T| numbers; give the histograms the same total.
		total := 0
		for _, t := range ts {
			total += t.Size()
		}
		avg := 0
		if len(ts) > 0 {
			avg = total / len(ts)
		}
		f.cfg = histogram.EqualSpace(3 * avg)
	}
	// Per-tree profiling is independent once the folding configuration is
	// fixed, so the build fans out like the query stages do.
	f.profiles = make([]*histogram.Profile, len(ts))
	forEach(len(ts), func(i int) {
		f.profiles[i] = histogram.NewProfileConfig(ts[i], f.cfg)
	})
}

// Append implements Filter. The folding configuration chosen at Index
// time is kept, so bounds stay mutually consistent.
func (f *Histo) Append(t *tree.Tree) {
	f.profiles = append(f.profiles, histogram.NewProfileConfig(t, f.cfg))
}

// Fresh implements Filter. The resolved folding configuration (not the
// zero Config that selects equal-space sizing) carries over, so a fresh
// filter over an empty segment does not degenerate to zero dimensions.
func (f *Histo) Fresh() Filter {
	cfg := f.Config
	if f.cfg != (histogram.Config{}) {
		cfg = f.cfg
	}
	return &Histo{Config: cfg}
}

// snapshotAt freezes the first n profiles (shared folding configuration,
// capped profile slice).
func (f *Histo) snapshotAt(n int, _ bool) Filter {
	return &Histo{Config: f.Config, cfg: f.cfg, profiles: f.profiles[:n:n]}
}

// Query implements Filter.
func (f *Histo) Query(q *tree.Tree, _ []int32) Bounder {
	return &histoBounder{f: f, qp: histogram.NewProfileConfig(q, f.cfg)}
}

type histoBounder struct {
	singleTier
	f  *Histo
	qp *histogram.Profile
}

func (b *histoBounder) KNNBound(i int) int {
	return histogram.LowerBound(b.qp, b.f.profiles[i])
}

func (b *histoBounder) RangeBound(i, tau int) int { return b.KNNBound(i) }

// None disables filtering: every lower bound is zero, so every data tree is
// verified with the real edit distance. Searching with None is the
// sequential scan baseline of the experiments.
type None struct{}

// NewNone returns the no-op filter.
func NewNone() *None { return &None{} }

// Name implements Filter.
func (*None) Name() string { return "Sequential" }

// Index implements Filter.
func (*None) Index([]*tree.Tree) {}

// Append implements Filter (no per-tree state).
func (*None) Append(*tree.Tree) {}

// Fresh implements Filter.
func (*None) Fresh() Filter { return &None{} }

// snapshotAt implements Filter (stateless, so the filter is its own
// snapshot).
func (f *None) snapshotAt(int, bool) Filter { return f }

// Query implements Filter.
func (*None) Query(*tree.Tree, []int32) Bounder { return noneBounder{} }

type noneBounder struct{ singleTier }

func (noneBounder) KNNBound(int) int        { return 0 }
func (noneBounder) RangeBound(_, _ int) int { return 0 }
