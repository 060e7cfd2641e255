package editdist

import "treesim/internal/tree"

// Constrained tree edit distance — Zhang, "Algorithms for the constrained
// editing distance between ordered labelled trees" (Pattern Recognition
// 1995), reference [22] of the paper. The constrained distance restricts
// Tai mappings so that two separate subtrees of T1 map to two separate
// subtrees of T2 (Section 2.1's description). The restriction makes the
// problem solvable in O(|T1|·|T2|) — versus the extra depth factors of the
// unrestricted DP — at the price of possibly overestimating:
//
//	Distance(t1, t2) ≤ ConstrainedDistance(t1, t2)
//
// Under unit costs the constrained distance is itself a metric, so it also
// serves as a cheap upper bound for the unrestricted distance (e.g. to
// seed the k-NN pruning radius before any exact evaluation).

// ConstrainedDistance returns the constrained edit distance, unit-cost by
// default. Of the options only WithCost applies: the program is already
// O(|T1|·|T2|) and takes no cutoff.
func ConstrainedDistance(t1, t2 *tree.Tree, opts ...Option) int {
	c := applyOptions(opts).cost
	a, b := decompose(t1), decompose(t2)
	if a.n == 0 || b.n == 0 {
		return a.totalCost(c.Delete) + b.totalCost(c.Insert)
	}
	akids, bkids := a.children(), b.children()

	// Whole-subtree and whole-forest deletion/insertion costs, over the
	// 1-based postorder indices: children before parents.
	delT := make([]int, a.n+1)
	delF := make([]int, a.n+1)
	for i := 1; i <= a.n; i++ {
		for _, ic := range akids[i] {
			delF[i] += delT[ic]
		}
		delT[i] = delF[i] + c.Delete(a.label[i])
	}
	insT := make([]int, b.n+1)
	insF := make([]int, b.n+1)
	for j := 1; j <= b.n; j++ {
		for _, jc := range bkids[j] {
			insF[j] += insT[jc]
		}
		insT[j] = insF[j] + c.Insert(b.label[j])
	}

	// dt[i][j]: constrained distance between the subtrees rooted at i, j.
	// df[i][j]: constrained distance between their children forests.
	dt := make([][]int, a.n+1)
	df := make([][]int, a.n+1)
	for i := range dt {
		dt[i] = make([]int, b.n+1)
		df[i] = make([]int, b.n+1)
	}

	for i := 1; i <= a.n; i++ {
		for j := 1; j <= b.n; j++ {
			// Forest distance.
			best := alignForests(akids[i], bkids[j], delT, insT, dt)
			// F(i) maps entirely inside the children forest of one
			// subtree of F(j) (that subtree's root and siblings are
			// inserted)...
			for _, jc := range bkids[j] {
				if v := insF[j] - insF[jc] + df[i][jc]; v < best {
					best = v
				}
			}
			// ...or symmetrically for F(j) inside F(i).
			for _, ic := range akids[i] {
				if v := delF[i] - delF[ic] + df[ic][j]; v < best {
					best = v
				}
			}
			df[i][j] = best

			// Tree distance.
			best = df[i][j] + c.Relabel(a.label[i], b.label[j])
			// Subtree i maps inside one child subtree of j (j's root
			// inserted, j's other children inserted)...
			for _, jc := range bkids[j] {
				if v := insT[j] - insT[jc] + dt[i][jc]; v < best {
					best = v
				}
			}
			// ...or subtree j inside one child subtree of i.
			for _, ic := range akids[i] {
				if v := delT[i] - delT[ic] + dt[ic][j]; v < best {
					best = v
				}
			}
			dt[i][j] = best
		}
	}
	return dt[a.n][b.n] // roots are last in postorder
}

// children lists each node's children left to right, from gatherParent:
// postorder visits siblings left to right.
func (d *decomp) children() [][]int {
	d.gatherParent(nil)
	kids := make([][]int, d.n+1)
	for y := 1; y < d.n; y++ { // the root, d.n, is nobody's child
		kids[d.parent[y]] = append(kids[d.parent[y]], y)
	}
	return kids
}

// alignForests computes the order-preserving alignment of two subtree
// sequences, where substituting subtree ic for jc costs dt[ic][jc] and
// gaps cost whole-subtree deletion/insertion — a string edit distance over
// subtrees.
func alignForests(f1, f2 []int, delT, insT []int, dt [][]int) int {
	m, n := len(f1), len(f2)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	prev[0] = 0
	for j := 1; j <= n; j++ {
		prev[j] = prev[j-1] + insT[f2[j-1]]
	}
	for i := 1; i <= m; i++ {
		cur[0] = prev[0] + delT[f1[i-1]]
		for j := 1; j <= n; j++ {
			cur[j] = min(
				prev[j]+delT[f1[i-1]],
				cur[j-1]+insT[f2[j-1]],
				prev[j-1]+dt[f1[i-1]][f2[j-1]],
			)
		}
		prev, cur = cur, prev
	}
	return prev[n]
}
