package editdist

import (
	"sync"

	"treesim/internal/tree"
)

// Threshold-bounded verification: what makes the kernel (kernel.go)
// cutoff-aware, for callers that only need a yes/no against a threshold
// (refine: τ for range queries, the running k-th-best for k-NN), and what
// lets a call with no threshold borrow one. Four mechanisms and a step
// between the first two, the first three in escalating cost:
//
//  1. O(n) pre-checks. Size delta, height delta, and label-histogram L1
//     delta are each admissible lower bounds on the number of edit
//     operations; scaled by the cost model's per-operation minimum they
//     reject a pair before the kernel is even taken from its pool. The
//     query side is computed once, by Prepare; the candidate side is one
//     allocation-free walk (scratch.measure) that also sums the keyroot
//     sizes FullCells needs, so a rejected candidate is never decomposed.
//
//     The sequence bound (Guha et al.) follows on the decomposed
//     candidate. A Tai mapping preserves ancestor and left-of order, hence
//     both postorder and preorder, so it aligns each pair of label
//     sequences with no more operations than the script has: each
//     sequence distance lower-bounds the operation count. Computed over
//     label slots by seqDist, capped at band (below) — at most
//     |q|·(2·band+1) steps, O(band² + |q|) on close pairs — a distance
//     above band rejects the pair at cutoff+1 before the kernel runs: the
//     postorder pass first, the preorder one only if it passes. It counts
//     as a pre-check (Metrics.Precheck).
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
//  4. The doubling search, for a call with no cutoff (Distance, and a k-NN
//     query's first k verifications). It guesses a band k in operations —
//     the largest of the pre-check's bound over cmin and the two sequence
//     distances, the preorder one computed only while the postorder one
//     leaves the search a band to try — and runs the kernel at band k
//     with the largest cutoff that band admits, (k+1)·cmin − 1, doubling
//     k until a run returns a value within its cutoff. The candidate is
//     decomposed once; only the kernel reruns. Past band
//     (|q|+|t|)/searchSpan the failed runs would cost more than the band
//     saves — unrelated pairs sit there — so the search hands the pair to
//     the band-off program.
//
// Soundness: the restricted program minimizes over a subset of edit paths
// (each still a valid mapping), so it never underestimates; and the path of
// a mapping of cost ≤ cutoff — through the root subproblem and, recursively,
// that of every matched pair off the leftmost paths — crosses only cells
// that satisfy (a) and (b) and hold values ≤ cutoff, so it survives both
// bands and every frontier test: a true distance ≤ cutoff is computed
// exactly. A computed value > cutoff therefore proves the true distance >
// cutoff but may overshoot it, so bounded calls certify only `cutoff+1`.
// So does the sequence bound: a sequence distance above band means every
// script has at least band+1 operations, costing at least
// cmin·(cutoff/cmin + 1) > cutoff.
// The bands and the pre-checks need a positive per-operation minimum cost
// (see MinOpCoster); without one the band is |T1|+|T2|, which restricts
// nothing, and only row abandoning — sound for any costs ≥ 0 — remains, and
// a call with no cutoff is one band-off run. The search (4) returns only a
// value some run certified within that run's cutoff, which the argument
// above makes exact, or the band-off run's, which restricts nothing; its
// guess only decides how many runs it takes, so its answers are the
// band-off program's.

// unreachable is the sentinel for "no mapping at or below the cutoff
// reaches this cell". It is far enough from the int ceiling that adding
// operation costs cannot wrap, and any value at or above it compares
// greater than every admissible cutoff.
const unreachable = int(^uint(0)>>1) / 4 // math.MaxInt / 4

// MinOpCoster is an optional CostModel capability: a uniform lower bound
// (≥ 1) on the cost of every single edit operation — every insert, every
// delete, and every relabel between distinct labels. Models reporting it
// unlock the pre-checks, the two bands of the bounded distance and the
// doubling search of an unbounded one; models without it still get
// frontier-row abandoning, which is sound for any non-negative costs.
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

// walk is what one pass over a candidate learns without decomposing it:
// everything the pre-checks and Metrics.FullCells need.
type walk struct {
	n, height int
	overlap   int   // Σ over labels of min(count in query, count in candidate)
	keys      int64 // Σ over keyroots k of |subtree(k)|
}

// precheck returns the best O(n) admissible lower bound on the edit
// distance from the query to a walked candidate: max of size delta,
// height delta, and half the label-histogram L1 delta (rounded up), scaled
// by the per-operation minimum cost. Each is a lower bound on the
// operation count — insert/delete change size and height by at most one
// and histogram mass by one; relabel changes neither size nor height and
// at most two units of mass. L1 = |q| + |t| − 2·overlap.
func (q *Query) precheck(w walk) int {
	lb := max(abs(q.d.n-w.n), abs(q.height-w.height), (q.d.n+w.n-2*w.overlap+1)/2)
	if lb > 0 && q.cmin > unreachable/lb {
		return unreachable
	}
	return q.cmin * lb
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// searchSpan sets where the doubling search stops: a band wider than
// (|q|+|t|)/searchSpan costs enough of the full program that, on unrelated
// pairs, the failed attempts before it would outweigh what it saves.
const searchSpan = 8

// search is mechanism 4 for a pair with no cutoff: starting from the
// largest of the pre-check's and the two label sequences' lower bounds, in
// operations, it runs the kernel at band k with the largest cutoff that
// band admits, (k+1)·cmin − 1, doubling k until a run certifies its cutoff.
// It returns (d, true) with that run's exact distance, or false once the
// band would pass top = (|q|+|t|)/searchSpan, the last band tried, leaving
// the pair to the band-off program. Each run's cells are added to m.
func (q *Query) search(s *scratch, b *decomp, lb int, m *Metrics) (int, bool) {
	top := (q.d.n + b.n) / searchSpan
	k := max(1, lb/q.cmin)
	if k > top || q.cmin > unreachable/(top+1) {
		return 0, false
	}
	for k = max(k, q.seqBound(s, b, top)); k <= top; k = min(2*k, top) {
		cutoff := (k+1)*q.cmin - 1
		if d := q.run(b, cutoff, k, m); d <= cutoff {
			return d, true
		}
		if k == top {
			break
		}
	}
	return 0, false
}

// seqBound is the sequence bound of the query against b in operations,
// capped at k+1: the postorder sequences' distance and, only when that is
// within k, the preorder sequences' too.
func (q *Query) seqBound(s *scratch, b *decomp, k int) int {
	post := s.seqDist(q.d.id[1:], b.id[1:], k)
	if post > k {
		return post
	}
	return max(post, s.seqDist(q.d.preid[1:], b.preid[1:], k))
}

// seqDist returns the unit-cost edit distance between two label-slot
// sequences — over a pair's postorder (or preorder) slots, Guha et al.'s
// lower bound on the number of tree edit operations, since a Tai mapping
// preserves both orders — or k+1 when it exceeds k. It is the banded
// program in diagonal-transition form (Ukkonen; Landau and Vishkin): for
// e = 0, 1, …, k it keeps, on each diagonal y − x within ±e, the furthest
// x that e operations reach — one step past a neighbour's, then slid along
// equal labels — and stops at the first e that reaches (|a|, |b|). That
// is O(k² + the slides) instead of |a|·(2k+1) cells. a is the query's
// side, so a candidate label the query lacks (slot −1) never matches.
func (s *scratch) seqDist(a, b []int32, k int) int {
	m, n := len(a), len(b)
	if abs(m-n) > k {
		return k + 1
	}
	const none = -unreachable // a diagonal no e operations reach
	s.diags = grow(s.diags, 2*k+3)
	fr, off := s.diags, k+1 // fr[off+d]: the furthest x on diagonal d
	for i := range fr {
		fr[i] = none
	}
	fr[off] = -1 // so that e = 0 starts diagonal 0 at x = 0
	for e := 0; e <= k; e++ {
		lo, hi := max(-e, -m), min(e, n)
		left := fr[off+lo-1] // diagonal d−1 before this round
		for d := lo; d <= hi; d++ {
			x := max(fr[off+d]+1, fr[off+d+1]+1, left)
			left = fr[off+d]
			x = min(x, m, n-d)
			for x < m && x+d < n && a[x] == b[x+d] {
				x++
			}
			fr[off+d] = x
		}
		if fr[off+n-m] >= m {
			return e
		}
	}
	return k + 1
}

// scratch is one Within call's working memory, pooled: the walk's stack,
// the candidate's per-slot label counts, the candidate's decomposition,
// filled only for a pair that survives the pre-checks, and the sequence
// bound's diagonals.
type scratch struct {
	stack   []frame
	seen    []int32 // per query slot: the candidate's count so far; zero between calls
	touched []int32 // the slots seen is non-zero at
	t       decomp
	diags   []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledNodes caps what a released scratch may hold: one giant tree or
// query must not leave its buffers under every later call.
const maxPooledNodes = 1 << 16

// release pools the scratch without references into the trees it saw.
func (s *scratch) release() {
	clear(s.stack[:cap(s.stack)])
	clear(s.t.label)
	s.t.label = s.t.label[:0]
	if max(cap(s.stack), cap(s.seen), cap(s.t.label), cap(s.diags)/2) <= maxPooledNodes {
		scratchPool.Put(s)
	}
}

// measure walks t once, iteratively, and returns its size, height, keyroot
// subtree sizes and — when hist is set — its label overlap with the query.
// Keyroots are the root and every node with a left sibling, and a
// keyroot's i − lml(i) + 1 is its subtree size, so FullCells needs no
// decomposition. Nothing is allocated once the pool is warm.
func (s *scratch) measure(t *tree.Tree, q *Query, hist bool) (w walk) {
	if t.IsEmpty() {
		return w
	}
	if hist {
		s.seen = grow(s.seen, len(q.count))
		w.overlap = s.tally(q, t.Root.Label)
	}
	w.n, w.height = 1, 1
	s.stack = append(s.stack[:0], frame{n: t.Root, keyroot: true})
	for len(s.stack) > 0 {
		f := &s.stack[len(s.stack)-1]
		if f.kid == len(f.n.Children) {
			if f.keyroot {
				w.keys += int64(w.n - f.start)
			}
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		c, left := f.n.Children[f.kid], f.kid > 0
		f.kid++
		if hist {
			w.overlap += s.tally(q, c.Label)
		}
		w.height = max(w.height, len(s.stack)+1)
		if len(c.Children) > 0 {
			s.stack = append(s.stack, frame{n: c, start: w.n, keyroot: left})
		} else if left {
			w.keys++
		}
		w.n++
	}
	if hist {
		for _, slot := range s.touched {
			s.seen[slot] = 0
		}
		s.touched = s.touched[:0]
	}
	return w
}

// tally counts one candidate label and returns 1 when it pairs with a
// query occurrence not yet paired, so the returns sum to the overlap.
func (s *scratch) tally(q *Query, label string) int {
	slot, ok := q.slot[label]
	if !ok {
		return 0
	}
	c := s.seen[slot]
	if c == 0 {
		s.touched = append(s.touched, slot)
	}
	s.seen[slot] = c + 1
	if c < q.count[slot] {
		return 1
	}
	return 0
}

// decompose fills the scratch's decomposition with t, labelled by the
// query's slots, for the kernel.
func (s *scratch) decompose(t *tree.Tree, q *Query) *decomp {
	d := &s.t
	s.stack = d.load(t, s.stack)
	d.id = grow(d.id, d.n+1)
	for y := 1; y <= d.n; y++ {
		d.id[y] = q.slotOf(d.label[y])
	}
	d.gatherPre()
	return d
}
