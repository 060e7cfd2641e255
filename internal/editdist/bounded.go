package editdist

import "treesim/internal/tree"

// Threshold-bounded verification: what makes the kernel (kernel.go)
// cutoff-aware, for callers that only need a yes/no against a threshold
// (refine: τ for range queries, the running k-th-best for k-NN). Three
// mechanisms, in escalating cost:
//
//  1. O(n) pre-checks. Size delta, height delta, and label-histogram L1
//     delta are each admissible lower bounds on the number of edit
//     operations; scaled by the cost model's per-operation minimum they
//     reject a pair before the kernel is even taken from its pool.
//
//  2. Two bands of width band = cutoff/minOpCost, the most nodes a mapping
//     of cost ≤ cutoff can leave unmatched (inserts + deletes). Write
//     li = lml(i), lj = lml(j), δ = li − lj for keyroot subproblem (i, j).
//     (a) Diagonal: a forest-distance cell (x, y) whose prefixes differ in
//     size by more than band costs more than the cutoff in unmatched nodes
//     alone, so |(x−li) − (y−lj)| ≤ band (Ukkonen's trick, per subproblem).
//     (b) Global positional: a Tai mapping preserves left-of and ancestor
//     order, hence postorder. If it matches x to y, the nodes left of x
//     (those before lml(x)) map among the nodes left of y, and the nodes at
//     or before x in postorder among those at or before y; each pair of
//     counts differs by unmatched nodes only, so |lml(x) − lml(y)| ≤ band
//     and |x − y| ≤ band — the latter at every cell (x, y) the mapping's
//     edit path crosses in any subproblem, since the mapping takes T1[1..x]
//     and T2[1..y] onto each other. So a subproblem with |δ| > band is
//     skipped outright, and inside one the offset o = (x−li) − (y−lj) ranges
//     over [max(−band, −band−δ), min(band, band−δ)]: (a) and |o+δ| ≤ band.
//
//  3. Frontier-row abandoning. When every cell of a subproblem's frontier
//     row exceeds the cutoff, every later cell of that subproblem does
//     too: restricting an optimal Tai mapping of larger prefixes to the
//     frontier row's prefix yields a valid, cheaper mapping measured by
//     some cell of that row. The subproblem is abandoned; the tree-distance
//     entries it never wrote keep the `unreachable` sentinel.
//
// Soundness: the restricted program minimizes over a subset of edit paths
// (each still a valid mapping), so it never underestimates; and the path of
// a mapping of cost ≤ cutoff — through the root subproblem and, recursively,
// that of every matched pair off the leftmost paths — crosses only cells
// that satisfy (a) and (b) and hold values ≤ cutoff, so it survives both
// bands and every frontier test: a true distance ≤ cutoff is computed
// exactly. A computed value > cutoff therefore proves the true distance >
// cutoff but may overshoot it, so bounded calls certify only `cutoff+1`.
// The bands and the pre-checks need a positive per-operation minimum cost
// (see MinOpCoster); without one the band is |T1|+|T2|, which restricts
// nothing, and only row abandoning — sound for any costs ≥ 0 — remains.

// unreachable is the sentinel for "no mapping at or below the cutoff
// reaches this cell". It is far enough from the int ceiling that adding
// operation costs cannot wrap, and any value at or above it compares
// greater than every admissible cutoff.
const unreachable = int(^uint(0)>>1) / 4 // math.MaxInt / 4

// MinOpCoster is an optional CostModel capability: a uniform lower bound
// (≥ 1) on the cost of every single edit operation — every insert, every
// delete, and every relabel between distinct labels. Models reporting it
// unlock the pre-checks and the two bands of the bounded distance;
// models without it still get frontier-row abandoning, which is sound for
// any non-negative costs.
type MinOpCoster interface {
	MinOpCost() int
}

// MinOpCost implements MinOpCoster: every UnitCost operation costs 1.
func (UnitCost) MinOpCost() int { return 1 }

// MinOpCost resolves a model's per-operation minimum, 0 when unknown.
func MinOpCost(c CostModel) int {
	if m, ok := c.(MinOpCoster); ok {
		if v := m.MinOpCost(); v >= 1 {
			return v
		}
	}
	return 0
}

// precheckBound returns the best O(n) admissible lower bound on the edit
// distance: max of size delta, height delta, and half the label-histogram
// L1 delta (rounded up), scaled by the per-operation minimum cost. Each is
// a lower bound on the operation count — insert/delete change size and
// height by at most one and histogram mass by one; relabel changes
// neither size nor height and at most two units of mass.
func precheckBound(t1, t2 *tree.Tree, a, b *decomp, cmin int) int {
	lb := a.n - b.n
	if lb < 0 {
		lb = -lb
	}
	if hd := t1.Height() - t2.Height(); hd > lb {
		lb = hd
	} else if -hd > lb {
		lb = -hd
	}
	counts := make(map[string]int, a.n)
	for i := 1; i <= a.n; i++ {
		counts[a.label[i]]++
	}
	for j := 1; j <= b.n; j++ {
		counts[b.label[j]]--
	}
	l1 := 0
	for _, v := range counts {
		if v < 0 {
			v = -v
		}
		l1 += v
	}
	if h := (l1 + 1) / 2; h > lb {
		lb = h
	}
	if lb > 0 && cmin > unreachable/lb {
		return unreachable
	}
	return cmin * lb
}

// fullCells is how many interior forest-distance cells the unbounded
// program computes: Σ over keyroot pairs of (i−lml(i)+1)·(j−lml(j)+1),
// which factorizes into the product of the two trees' per-keyroot
// special-subforest size sums.
func fullCells(a, b *decomp) int64 {
	var sa, sb int64
	for _, i := range a.keyroots {
		sa += int64(i - a.lml[i] + 1)
	}
	for _, j := range b.keyroots {
		sb += int64(j - b.lml[j] + 1)
	}
	return sa * sb
}
