// Package editdist implements the tree edit distance for rooted, ordered,
// labeled trees — the "real" distance that the binary branch embedding
// lower-bounds and that the refine step of similarity search must evaluate.
//
// The main algorithm is the dynamic program of Zhang and Shasha (SIAM J.
// Computing 1989, reference [23] of the paper), which runs in
//
//	O(|T1|·|T2|·min(depth(T1),leaves(T1))·min(depth(T2),leaves(T2)))
//
// time and O(|T1|·|T2|) space. The entry points are options-based
// (Distance, WithCost, WithCutoff); DistanceWithin is the cutoff-first
// surface for threshold verification, backed by O(n) pre-checks, a banded
// sequence bound, a region-count DP band and frontier-row early abandoning
// (see bounded.go, kernel.go); with no cutoff the same kernel runs as a
// doubling search over cutoffs. Under unit costs the sequence bound can
// also settle a pair exactly with no tree DP: when an optimal alignment of
// the two postorder label sequences is a Tai mapping, its cost is the
// distance (certify.go).
// A caller verifying one tree against many prepares it once (Prepare) and
// asks Query.Within per candidate: each candidate is read once, into a
// pooled decomposition that also counts its labels against the query's,
// and the pre-checks, the sequence bound and the kernel all read that.
// Distance and DistanceWithin are that same path for a single pair.
// The package also exports the Guha et al. preorder/postorder sequence
// lower bound (reference [15]) as a baseline — the verifier runs it banded
// before the tree DP — and its banded label-sequence distance, SeqDist,
// which the search engine's sequence tier runs on sequences read off
// branch profiles; and an exponential brute-force distance over Tai
// mappings used to validate the dynamic program in tests.
package editdist

import (
	"slices"

	"treesim/internal/tree"
)

// CostModel assigns costs to the three edit operations. Costs must be
// non-negative, and Relabel(a,a) must be 0 for the distance to satisfy the
// identity axiom.
type CostModel interface {
	// Relabel is the cost of changing label a into label b.
	Relabel(a, b string) int
	// Insert is the cost of inserting a node with the given label.
	Insert(label string) int
	// Delete is the cost of deleting a node with the given label.
	Delete(label string) int
}

// UnitCost is the unit-cost model adopted by the paper: every operation
// costs 1, and relabeling a node to its own label costs 0. Under UnitCost
// the edit distance is the minimum number of operations transforming one
// tree into the other, and it is a metric.
type UnitCost struct{}

// Relabel implements CostModel.
func (UnitCost) Relabel(a, b string) int {
	if a == b {
		return 0
	}
	return 1
}

// Insert implements CostModel.
func (UnitCost) Insert(string) int { return 1 }

// Delete implements CostModel.
func (UnitCost) Delete(string) int { return 1 }

// Distance returns the tree edit distance between t1 and t2 under the
// options' cost model (unit costs by default):
//
//	d := editdist.Distance(t1, t2)                        // paper's unit costs
//	d := editdist.Distance(t1, t2, editdist.WithCost(c))  // custom model
//
// Without a cutoff the answer is exact, found by the doubling search of
// bounded.go. With WithCutoff the computation is bounded: the result is
// exact whenever it is ≤ the cutoff and otherwise only guaranteed to exceed
// it. Callers that need to know which side the pair landed on should use
// DistanceWithin.
func Distance(t1, t2 *tree.Tree, opts ...Option) int {
	d, _ := DistanceWithin(t1, t2, noCutoff, opts...)
	return d
}

// DistanceWithin is the cutoff-first entry point for threshold
// verification: it decides whether the edit distance between t1 and t2 is
// at most cutoff, spending as little work as the decision allows
// (pre-checks, the sequence bound, a band, early abandoning — see
// bounded.go). It returns (d, true) with the exact distance d when
// d ≤ cutoff, and (lb, false) with a certified lower bound lb > cutoff
// when the distance is proven to exceed it. It is Prepare(t1, opts...).Within(t2, cutoff,
// m) with m the WithMetrics sink.
func DistanceWithin(t1, t2 *tree.Tree, cutoff int, opts ...Option) (int, bool) {
	cfg := applyOptions(opts)
	return prepare(t1, &cfg).Within(t2, cutoff, cfg.metrics)
}

// Query is a tree prepared for verification against many candidates: its
// decomposition, its height, a slot per distinct label with the label's
// count, and the sum of its keyroot subtree sizes. It is read-only once
// built, so any number of goroutines may call Within on it at once.
type Query struct {
	d      *decomp // d.id holds each node's label slot
	height int
	keys   int64 // Σ over keyroots k of |subtree(k)|: FullCells is this times the candidate's
	slot   map[string]int32
	count  []int32 // occurrences of each slot's label in the query
	cost   CostModel
	cmin   int  // MinOpCost(cost)
	unit   bool // cost is UnitCost: the alignment certificate applies
	cutoff int  // the WithCutoff cap on every Within, noCutoff if none
}

// Prepare readies q for Within under the options' cost model (unit costs
// by default); a WithCutoff option caps the cutoff of every Within call,
// and the metrics sink is Within's argument, not an option here. It costs
// one decomposition of q, which DistanceWithin pays per pair.
func Prepare(q *tree.Tree, opts ...Option) *Query {
	cfg := applyOptions(opts)
	return prepare(q, &cfg)
}

func prepare(t *tree.Tree, cfg *config) *Query {
	d := decompose(t)
	q := &Query{
		d: d, height: d.height, keys: d.keys, slot: make(map[string]int32, d.n), count: make([]int32, 0, d.n),
		cost: cfg.cost, cmin: MinOpCost(cfg.cost), cutoff: cfg.cutoff,
	}
	if _, q.unit = cfg.cost.(UnitCost); q.unit {
		d.gatherParent(nil)
	}
	d.id, d.preid = make([]int32, d.n+1), make([]int32, d.n+1)
	for i := 1; i <= d.n; i++ {
		s, ok := q.slot[d.label[i]]
		if !ok {
			s = int32(len(q.count))
			q.slot[d.label[i]] = s
			q.count = append(q.count, 0)
		}
		q.count[s]++
		d.id[i], d.preid[d.pre[i]] = s, s
	}
	return q
}

// Within decides whether the edit distance from the query to t is at most
// cutoff (or the Prepare-time WithCutoff, whichever is tighter), with
// DistanceWithin's contract: (d, true) with the exact distance d ≤ cutoff,
// or (lb, false) with a certified lower bound lb > cutoff. When m is not
// nil it is overwritten with the call's accounting. t is read once, into a
// pooled decomposition labelled by the query's slots, and everything after
// reads that: the empty, negative-cutoff and pre-check cases, the sequence
// bound and the kernel. Under UnitCost the sequence bound's alignment may
// certify the distance outright (certify.go), and no kernel runs. With no
// cutoff (one at or above `unreachable`) and a per-operation minimum, the
// kernel runs the doubling search of bounded.go on that one decomposition.
func (q *Query) Within(t *tree.Tree, cutoff int, m *Metrics) (int, bool) {
	if m == nil {
		m = new(Metrics)
	}
	cutoff = min(cutoff, q.cutoff)
	s := scratchPool.Get().(*scratch)
	defer s.release()
	b := s.decompose(t, q)
	*m = Metrics{FullCells: q.keys * b.keys}
	a, c := q.d, q.cost
	switch {
	case a.n == 0 || b.n == 0:
		d := a.totalCost(c.Delete) + b.totalCost(c.Insert)
		return d, d <= cutoff
	case cutoff < 0:
		// Distances are non-negative, so nothing is within a negative
		// cutoff; 0 is the trivial certified lower bound.
		m.Precheck = true
		return 0, false
	}
	// Models without a per-operation minimum have neither pre-checks nor
	// bands, so they keep the band that covers every cell.
	screen := q.cmin >= 1
	band, lb := a.n+b.n, 0 // a band of |q|+|t| restricts nothing
	if screen {
		if lb = q.precheck(b, s.overlap); lb > cutoff {
			m.Precheck = true
			return lb, false
		}
	}
	switch {
	case !screen:
	case cutoff < unreachable:
		band = min(band, cutoff/q.cmin)
		seq, exact := q.seqBound(s, b, band)
		if seq > band {
			m.Precheck = true
			return cutoff + 1, false
		}
		if exact {
			m.Certified = true
			return seq, true
		}
	default:
		if d, ok := q.search(s, b, lb, m); ok {
			return d, true
		}
	}
	d := q.run(b, cutoff, band, m)
	if d > cutoff {
		// The value proves dist > cutoff but may overshoot it (bounded.go).
		m.Aborted = true
		return cutoff + 1, false
	}
	return d, true
}

// run is one kernel run of the query against the decomposed candidate b,
// adding its cells to m: the root cell, exact when ≤ cutoff.
func (q *Query) run(b *decomp, cutoff, band int, m *Metrics) int {
	k := newKernel(q.d, b, q.cost, cutoff, band)
	d := k.run()
	m.Cells += k.cells
	k.release()
	return d
}

// decomp holds the postorder decomposition of a tree used by the DP.
type decomp struct {
	n        int      // node count
	height   int      // nodes on the longest root-to-leaf path
	label    []string // label[i] = label of postorder node i (1-based)
	lml      []int    // lml[i]   = postorder index of leftmost leaf of i
	keyroots []int    // ascending LR-keyroots
	keys     int64    // Σ over keyroots k of |subtree(k)|
	// id[i] is node i's label as a small integer, equal for equal labels
	// across a query and its candidate: the query's slot, −1 for a
	// candidate label the query lacks. The kernel compares these under
	// UnitCost instead of strings.
	id []int32
	// pre[i] is node i's preorder index, and preid[p] the id of the p-th
	// node in preorder: the two label sequences of the sequence bound are
	// id[1:] and preid[1:].
	pre   []int
	preid []int32
	// parent[i] is the postorder index of node i's parent, 0 for the
	// root; filled by gatherParent for the alignment certificate and the
	// constrained distance.
	parent []int
}

// frame is a node whose children load is still visiting; load keeps its
// own stack of them, so a tree's depth costs heap, not goroutine stack.
type frame struct {
	n       *tree.Node
	kid     int  // next child to visit
	first   int  // leftmost leaf of n's first child, once that is done
	keyroot bool // n is the root or has a left sibling
}

// decompose computes postorder labels, leftmost-leaf indices and the
// LR-keyroots of t (see load) into slices of its own, loaded through a
// pooled scratch so that each is allocated once, at its length.
func decompose(t *tree.Tree) *decomp {
	s := scratchPool.Get().(*scratch)
	defer s.release()
	s.stack = s.t.load(t, s.stack)
	b := &s.t
	return &decomp{n: b.n, height: b.height, keys: b.keys, label: slices.Clone(b.label),
		lml: slices.Clone(b.lml), keyroots: slices.Clone(b.keyroots), pre: slices.Clone(b.pre)}
}

// load fills d with t's decomposition, reusing d's slices and the given
// stack, and returns the stack for reuse. Outside the brute-force
// reference it is the only reader of a tree's nodes in this package. The
// keyroots are the nodes that are the root or have a left sibling —
// equivalently the highest node of each distinct leftmost path — recorded
// as the postorder walk finishes them, so they come out ascending; a
// keyroot's subtree size is k − lml(k) + 1. A node's preorder index is its
// ancestors (the stack below it) plus its leftmost leaf's postorder index
// (one more than the nodes left of it), and its depth, which the height
// maxes, is the stack with it.
func (d *decomp) load(t *tree.Tree, stack []frame) []frame {
	d.n, d.height, d.keys = 0, 0, 0
	d.label, d.lml, d.keyroots = append(d.label[:0], ""), append(d.lml[:0], 0), d.keyroots[:0]
	d.pre = append(d.pre[:0], 0)
	if t.IsEmpty() {
		return stack
	}
	stack = append(stack[:0], frame{n: t.Root, keyroot: true})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.kid < len(f.n.Children) {
			c, left := f.n.Children[f.kid], f.kid > 0
			f.kid++
			stack = append(stack, frame{n: c, keyroot: left})
			continue
		}
		d.n++
		lml := d.n
		if len(f.n.Children) > 0 {
			lml = f.first
		}
		d.height = max(d.height, len(stack))
		d.label = append(d.label, f.n.Label)
		d.lml = append(d.lml, lml)
		d.pre = append(d.pre, lml+len(stack)-1)
		if f.keyroot {
			d.keyroots = append(d.keyroots, d.n)
			d.keys += int64(d.n - lml + 1)
		}
		stack = stack[:len(stack)-1]
		if p := len(stack) - 1; p >= 0 && stack[p].kid == 1 {
			stack[p].first = lml // n was its parent's first child
		}
	}
	return stack
}

// gatherParent fills parent and returns stack, working memory, for reuse.
// In postorder the subtrees finished inside node y's, [lml(y), y), are
// its children's, so a stack of finished subtree roots pops them as y's.
func (d *decomp) gatherParent(stack []int) []int {
	d.parent = grow(d.parent, d.n+1)
	stack = stack[:0]
	for y := 1; y <= d.n; y++ {
		for len(stack) > 0 && stack[len(stack)-1] >= d.lml[y] {
			d.parent[stack[len(stack)-1]] = y
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, y)
	}
	d.parent[0] = 0
	for _, r := range stack {
		d.parent[r] = 0
	}
	return stack
}

// totalCost sums a per-label cost over every node, e.g. the cost of
// deleting (or inserting) the whole tree.
func (d *decomp) totalCost(cost func(string) int) int {
	s := 0
	for i := 1; i <= d.n; i++ {
		s += cost(d.label[i])
	}
	return s
}
