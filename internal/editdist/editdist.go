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
// surface for threshold verification, backed by O(n) pre-checks, two DP
// bands and frontier-row early abandoning (see bounded.go, kernel.go).
// The package also provides the classic string edit distance and the Guha
// et al. preorder/postorder sequence lower bound (reference [15]), used as
// an additional filter baseline, and an exponential brute-force distance
// over Tai mappings used to validate the dynamic program in tests.
package editdist

import "treesim/internal/tree"

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
// With WithCutoff the computation is bounded: the result is exact whenever
// it is ≤ the cutoff and otherwise only guaranteed to exceed it. Callers
// that need to know which side the pair landed on should use
// DistanceWithin.
func Distance(t1, t2 *tree.Tree, opts ...Option) int {
	cfg := applyOptions(opts)
	d, _ := distance(t1, t2, &cfg)
	return d
}

// DistanceWithin is the cutoff-first entry point for threshold
// verification: it decides whether the edit distance between t1 and t2 is
// at most cutoff, spending as little work as the decision allows
// (pre-checks, two bands, early abandoning — see bounded.go). It
// returns (d, true) with the exact distance d when d ≤ cutoff, and
// (lb, false) with a certified lower bound lb > cutoff when the distance
// is proven to exceed it.
func DistanceWithin(t1, t2 *tree.Tree, cutoff int, opts ...Option) (int, bool) {
	cfg := applyOptions(opts)
	if cutoff < cfg.cutoff {
		cfg.cutoff = cutoff
	}
	return distance(t1, t2, &cfg)
}

// distance runs a folded configuration: empty-tree and negative-cutoff
// cases, the O(n) pre-checks, then the kernel. The boolean reports dist ≤
// cutoff; when false the returned value is a certified lower bound > cutoff.
func distance(t1, t2 *tree.Tree, cfg *config) (int, bool) {
	a, b := decompose(t1), decompose(t2)
	m := cfg.metrics
	if m == nil {
		m = new(Metrics)
	}
	*m = Metrics{FullCells: fullCells(a, b)}
	c, cutoff := cfg.cost, cfg.cutoff
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
	// No cutoff (or one too large to prune anything real) and models without
	// a per-operation minimum keep the band that covers every cell.
	band := a.n + b.n
	if cmin := MinOpCost(c); cmin >= 1 && cutoff < unreachable {
		if lb := precheckBound(t1, t2, a, b, cmin); lb > cutoff {
			m.Precheck = true
			return lb, false
		}
		band = min(band, cutoff/cmin)
	}
	k := newKernel(a, b, c, cutoff, band)
	d := k.run()
	m.Cells = k.cells
	k.release()
	if d > cutoff {
		// The value proves dist > cutoff but may overshoot it (bounded.go).
		m.Aborted = true
		return cutoff + 1, false
	}
	return d, true
}

// decomp holds the postorder decomposition of a tree used by the DP.
type decomp struct {
	n        int      // node count
	label    []string // label[i] = label of postorder node i (1-based)
	lml      []int    // lml[i]   = postorder index of leftmost leaf of i
	keyroots []int    // ascending LR-keyroots
}

// decompose computes postorder labels, leftmost-leaf indices and the
// LR-keyroots (nodes that are the root or have a left sibling; equivalently
// the highest node of each distinct leftmost path).
func decompose(t *tree.Tree) *decomp {
	d := &decomp{label: []string{""}, lml: []int{0}}
	if t.IsEmpty() {
		return d
	}
	var rec func(n *tree.Node) int // returns postorder index of n
	rec = func(n *tree.Node) int {
		first := 0
		for k, ch := range n.Children {
			idx := rec(ch)
			if k == 0 {
				first = d.lml[idx]
			}
		}
		d.n++
		d.label = append(d.label, n.Label)
		if len(n.Children) == 0 {
			d.lml = append(d.lml, d.n)
		} else {
			d.lml = append(d.lml, first)
		}
		return d.n
	}
	rec(t.Root)
	// Keyroots: for each distinct leftmost-leaf value keep the largest
	// postorder index having it.
	last := make(map[int]int, d.n)
	for i := 1; i <= d.n; i++ {
		last[d.lml[i]] = i
	}
	for i := 1; i <= d.n; i++ {
		if last[d.lml[i]] == i {
			d.keyroots = append(d.keyroots, i)
		}
	}
	return d
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
