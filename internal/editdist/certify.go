package editdist

import "slices"

// The alignment certificate (bounded.go, mechanism 1's last step): under
// UnitCost the postorder sequence distance c lower-bounds the tree
// distance, and an alignment of the two postorder label sequences costs c
// — a delete per unaligned query node, an insert per unaligned candidate
// node, a relabel per aligned pair of distinct labels. Its aligned pairs
// ascend in postorder on both sides; when they also keep ancestry — x an
// ancestor of x' exactly when y is one of y' — they keep left-of order
// too, so they are a Tai mapping of cost c, and the tree distance is
// exactly c with no kernel run. The preorder sequences are the mirrored
// trees' postorder ones reversed (editdist.go), and mirroring both trees
// turns each Tai mapping into one of the same cost, so the same walk over
// the mirrors settles a pair at its preorder distance. The walk runs on the
// order whose distance is the larger — only that one can be the tree
// distance — and on the postorder one when they tie.
//
// Each order's pass keeps every round's frontier (alignDist), in a buffer
// of its own, and certify walks the optimal alignments back from
// (|q|, |t|) depth first, aligning before leaving a node unaligned, and
// deleting before inserting. Each aligned pair is checked against the
// pairs already taken in O(1): they all lie later in postorder, so each is
// an ancestor of the new node or right of it, and the new pair keeps
// ancestry exactly when the nearest aligned ancestor of y is the partner of
// the nearest aligned ancestor of x. A pair that breaks it sends the walk
// back to the latest other optimal step; so the walk finds a mapping among
// the optimal alignments if there is one, unless it runs out of its budget
// of steps first. A walk that exhausts them proves more: no Tai mapping
// costs c, so the distance is at least c+1 — the floor the bounded path
// rejects by and the doubling search starts at. A walk out of budget
// proves nothing beyond c.

// Traceback steps: the diagonal one aligns the two current nodes (a match,
// or a relabel), the others leave one of them unaligned.
const (
	diagonal = iota
	deletion
	insertion
)

// certifyBudget bounds certify's walk at certifyBudget·(|q|+|t|) steps: a
// walk that finds a mapping takes about max(|q|, |t|) steps, and one that
// finds none spends at most a few traceback lengths before the pair goes
// to the kernel, whose band alone costs more.
const certifyBudget = 2

// certifies reports whether a certificate attempt pays for a pair of the
// query and a candidate of n nodes when the sequence bound runs at band k:
// under UnitCost, and while k < min(|q|, |t|). A failed attempt costs at
// most (k+1)² recorded frontier entries per order, an O(|t|) pass for the
// parent links, and certifyBudget·(|q|+|t|) walk steps; the kernel run it
// would save writes k+1 cells or more per query node to lay out its band
// before it computes any, so below that band the kernel is never the
// cheaper of the two. Past it — a band as wide as the
// smaller tree, which only a loose cutoff on lopsided sizes gives — the
// recorded frontiers would outgrow the kernel's tables.
func (q *Query) certifies(n, k int) bool {
	return q.unit && k < min(q.d.n, n)
}

// order names the label sequences a walk aligns: the two trees'
// postorder ones, or their preorder ones, read reversed as their mirrors'
// postorder ones.
type order int

const (
	postorder order = iota
	preorder
)

// outcome is how a walk ends.
type outcome int8

const (
	mapped    outcome = iota // an optimal alignment is a Tai mapping: the distance is dist
	exhausted                // none is: the distance is at least dist+1
	spent                    // the budget ran out first: nothing proven beyond dist
)

// certScratch is the certificate's working memory in a scratch:
// alignDist's frontiers, round by round, per order, and certify's walk —
// the choices it may come back to, and per node of each tree its partner
// and its nearest aligned ancestor.
type certScratch struct {
	rows       [2][]int // by order
	path       []choice
	roots      []int // gatherParent's stack
	partA, upA []int
	partB, upB []int
}

// alignDist is SeqDist(a, b, k) that also keeps, for certify, every round's
// furthest x on each diagonal: round e's diagonal d at c.rows[o][e²+e+d],
// for |d| ≤ e, none where e operations reach no cell of it. It costs the
// (d+1)² entries of a distance d besides SeqDist's work.
func (c *certScratch) alignDist(o order, a, b []int32, k int) int {
	m, n := len(a), len(b)
	if abs(m-n) > k {
		return k + 1
	}
	k = min(k, max(m, n))
	rows := c.rows[o][:0]
	defer func() { c.rows[o] = rows }()
	for e := 0; e <= k; e++ {
		base := e * e
		rows = slices.Grow(rows, 2*e+1)[:base+2*e+1]
		for d := -e; d <= e; d++ {
			x := none
			if -m <= d && d <= n {
				if e == 0 {
					x = 0
				} else {
					x = max(frontier(rows, e-1, d)+1, frontier(rows, e-1, d+1)+1, frontier(rows, e-1, d-1))
				}
				if x < 0 {
					x = none
				} else {
					end := min(m, n-d)
					x = min(x, end)
					for x < end && a[x] == b[x+d] {
						x++
					}
				}
			}
			rows[base+e+d] = x
		}
		if abs(n-m) <= e && rows[base+e+n-m] >= m {
			return e
		}
	}
	return k + 1
}

// none is a frontier entry no number of operations reaches.
const none = -unreachable

// frontier is round e's furthest x on diagonal d, none off the round's
// diagonals and before round 0.
func frontier(rows []int, e, d int) int {
	if e < 0 || d < -e || d > e {
		return none
	}
	return rows[e*e+e+d]
}

// choice is a cell (x, y) at distance e that certify's walk stepped from,
// and the step to try from it next if the walk comes back.
type choice struct {
	x, y, e int
	next    int8
}

// certify reports whether some optimal alignment of a's and b's postorder
// label sequences, whose distance alignDist(o, …) just found to be dist, is
// a Tai mapping — then dist is the tree distance — or whether there is
// none, walking at most certifyBudget·(|a|+|b|) steps of them. a and b are
// the two trees for the postorder order, their mirrors for the preorder
// one, with their parent links filled. A cell (x, y) on diagonal y − x at
// distance e stays optimal through the diagonal step when the labels are
// equal, and through a step that costs one when that step's cell lies
// within round e−1's frontier: the distance never falls along a diagonal,
// so every cell up to the furthest reached is reached. It allocates
// nothing once the scratch is warm.
func (c *certScratch) certify(o order, a, b *decomp, dist int) outcome {
	// part: the aligned node of the other tree, 0 if unaligned; up: the
	// nearest aligned proper ancestor, 0 if none. The walk writes both for
	// a node when it decides the node, before any descendant — earlier in
	// postorder — reads them; index 0 stands above the roots.
	c.partA, c.upA = grow(c.partA, a.n+1), grow(c.upA, a.n+1)
	c.partB, c.upB = grow(c.partB, b.n+1), grow(c.upB, b.n+1)
	rows, partA, upA, partB, upB := c.rows[o], c.partA, c.upA, c.partB, c.upB
	partA[0], upA[0], partB[0], upB[0] = 0, 0, 0, 0
	path := c.path[:0]
	defer func() { c.path = path }()
	x, y, e, next := a.n, b.n, dist, int8(diagonal)
	for steps := certifyBudget * (a.n + b.n); x > 0 || y > 0; steps-- {
		if steps == 0 {
			return spent
		}
		var ua, ub int
		if x > 0 {
			if p := a.parent[x]; partA[p] != 0 {
				ua = p
			} else {
				ua = upA[p]
			}
		}
		if y > 0 {
			if p := b.parent[y]; partB[p] != 0 {
				ub = p
			} else {
				ub = upB[p]
			}
		}
		d, took := y-x, next
		for ; took <= insertion; took++ {
			ok := false
			switch took {
			case diagonal:
				ok = x > 0 && y > 0 && partA[ua] == ub && (a.id[x] == b.id[y] || x-1 <= frontier(rows, e-1, d))
			case deletion:
				ok = x > 0 && x-1 <= frontier(rows, e-1, d+1)
			case insertion:
				ok = y > 0 && x <= frontier(rows, e-1, d-1)
			}
			if ok {
				break
			}
		}
		if took > insertion {
			// No step left from here: back to the latest cell with one.
			if len(path) == 0 {
				return exhausted
			}
			last := path[len(path)-1]
			path = path[:len(path)-1]
			x, y, e, next = last.x, last.y, last.e, last.next
			continue
		}
		path = append(path, choice{x, y, e, took + 1})
		switch took {
		case diagonal:
			if a.id[x] != b.id[y] {
				e--
			}
			partA[x], upA[x], partB[y], upB[y] = y, ua, x, ub
			x, y = x-1, y-1
		case deletion:
			partA[x], upA[x] = 0, ua
			x, e = x-1, e-1
		case insertion:
			partB[y], upB[y] = 0, ub
			y, e = y-1, e-1
		}
		next = diagonal
	}
	return mapped
}
