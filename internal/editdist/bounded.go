package editdist

import (
	"sync"

	"treesim/internal/tree"
)

// Threshold-bounded verification: what makes the kernel (kernel.go)
// cutoff-aware, for callers that only need a yes/no against a threshold
// (refine: τ for range queries, the running k-th-best for k-NN), and what
// lets a call with no threshold borrow one. Four mechanisms and a step
// between the first two, the first three in escalating cost; the first
// ends, under UnitCost, with a certificate that can answer exactly:
//
//  1. O(n) pre-checks. Size delta, height delta, and label-histogram L1
//     delta are each admissible lower bounds on the number of edit
//     operations; scaled by the cost model's per-operation minimum they
//     reject a pair before the kernel is even taken from its pool. The
//     query side is computed once, by Prepare; the candidate side comes
//     with its decomposition into pooled buffers (scratch.decompose): load
//     records its size, height and keyroot sizes, and the loop that labels
//     it with the query's slots counts its label overlap with the query.
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
//     The alignment certificate (certify.go) closes the step under
//     UnitCost, when the band is below both sizes: the postorder pass
//     keeps its frontiers, and when its distance c is within the band and
//     at least the preorder one, certify walks the optimal alignments of
//     the postorder sequences, depth first and within a budget of steps,
//     for one whose aligned pairs keep ancestry. Such an alignment is a
//     Tai mapping of cost c, and c lower-bounds the distance, so the call
//     returns (c, true) with no kernel run (Metrics.Certified). A pair at
//     its postorder distance always has one — its optimal mapping, read
//     as an alignment — so only the budget, or a distance above c, leaves
//     such a pair to the kernel.
//
//  2. A region-count band (Touzet's k-relevance, CPM 2005) of width
//     band = cutoff/minOpCost, the most nodes a mapping of cost ≤ cutoff
//     can leave unmatched (inserts + deletes). A Tai mapping preserves
//     left-of and ancestor order, hence postorder. Write li = lml(i),
//     lj = lml(j), δ = li − lj for keyroot subproblem (i, j), which serves
//     the matched pairs (x', y') with those leftmost leaves (the roots, for
//     the root subproblem). When the mapping matches x' to y', its edit
//     path crosses a cell (x, y) of the subproblem only where it keeps
//     three regions apart: the nodes left of the leftmost leaves,
//     T1[..li−1] and T2[..lj−1]; the forest prefixes T1[li..x] and
//     T2[lj..y]; and the nodes after those in postorder, T1[x+1..] and
//     T2[y+1..]. Each region's two sizes differ by its own unmatched nodes
//     alone, so with o = (x−li) − (y−lj) and c = (|T1|−|T2|) − δ the cell
//     obeys |δ| + |o| + |c−o| ≤ band (the prefix term alone is Ukkonen's
//     diagonal band). As |o| + |c−o| ≥ |c|, a subproblem with |δ| + |c| >
//     band is skipped outright, and inside one o ranges over
//     [⌈(c−B)/2⌉, ⌊(c+B)/2⌋], B = band − |δ|. At band ≥ |T1|+|T2| that
//     is every cell of every subproblem.
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
//     leaves the search a band to try (the postorder pass at the search's
//     last band, which may certify the pair outright) — and runs the
//     kernel at band k with the largest cutoff that band admits,
//     (k+1)·cmin − 1, doubling k until a run returns a value within its
//     cutoff. The candidate is decomposed once; only the kernel reruns.
//     Past band (|q|+|t|)/searchSpan the failed runs would cost more than
//     the band saves — unrelated pairs sit there — so the search hands the
//     pair to the band-off program.
//
// Soundness: the restricted program minimizes over a subset of edit paths
// (each still a valid mapping), so it never underestimates; and the path of
// a mapping of cost ≤ cutoff — through the root subproblem and, recursively,
// that of every matched pair off the leftmost paths — crosses only cells
// whose three regions balance within the band and that hold values ≤
// cutoff, so it survives the band and every frontier test; and kernel.run
// solves each such matched pair's subproblem before any that reads its
// tree distance. A true distance ≤ cutoff is computed exactly. A computed
// value > cutoff therefore proves the true distance > cutoff but may
// overshoot it, so bounded calls certify only `cutoff+1`.
// So does the sequence bound: a sequence distance above band means every
// script has at least band+1 operations, costing at least
// cmin·(cutoff/cmin + 1) > cutoff. A certified value is exact whatever the
// cutoff: a Tai mapping of cost c is a script of cost c, the postorder
// distance c bounds every script from below, and c ≤ band ≤ cutoff.
// The band and the pre-checks need a positive per-operation minimum cost
// (see MinOpCoster); without one the band is |T1|+|T2|, which restricts
// nothing, and only row abandoning — sound for any costs ≥ 0 — remains, and
// a call with no cutoff is one band-off run. The search (4) returns only a
// value some run certified within that run's cutoff, which the argument
// above makes exact, or the band-off run's, which restricts nothing; its
// guess only decides how many runs it takes, so its answers are the
// band-off program's — or a certified value, which is the same.

// unreachable is the sentinel for "no mapping at or below the cutoff
// reaches this cell". It is far enough from the int ceiling that adding
// operation costs cannot wrap, and any value at or above it compares
// greater than every admissible cutoff.
const unreachable = int(^uint(0)>>1) / 4 // math.MaxInt / 4

// MinOpCoster is an optional CostModel capability: a uniform lower bound
// (≥ 1) on the cost of every single edit operation — every insert, every
// delete, and every relabel between distinct labels. Models reporting it
// unlock the pre-checks, the band of the bounded distance and the doubling
// search of an unbounded one; models without it still get frontier-row
// abandoning, which is sound for any non-negative costs.
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

// precheck returns the best O(n) admissible lower bound on the edit
// distance from the query to a decomposed candidate b with the given label
// overlap (Σ over labels of the smaller count): max of size delta, height
// delta, and half the label-histogram L1 delta (rounded up), scaled by the
// per-operation minimum cost. Each is a lower bound on the operation count
// — insert/delete change size and height by at most one and histogram mass
// by one; relabel changes neither size nor height and at most two units of
// mass. L1 = |q| + |t| − 2·overlap.
func (q *Query) precheck(b *decomp, overlap int) int {
	lb := max(abs(q.d.n-b.n), abs(q.height-b.height), (q.d.n+b.n-2*overlap+1)/2)
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
	seq, exact := q.seqBound(s, b, top)
	if exact {
		m.Certified = true
		return seq, true
	}
	for k = max(k, seq); k <= top; k = min(2*k, top) {
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
// within k, the preorder sequences' too. exact reports that the bound is
// the pair's distance, by the alignment certificate (certify.go): tried
// only where it pays (certifies) and the postorder distance is the larger.
func (q *Query) seqBound(s *scratch, b *decomp, k int) (seq int, exact bool) {
	cert := q.certifies(b.n, k)
	var post int
	if cert {
		post = s.cert.alignDist(q.d.id[1:], b.id[1:], k)
	} else {
		post = s.seqDist(q.d.id[1:], b.id[1:], k)
	}
	if post > k {
		return post, false
	}
	pre := s.seqDist(q.d.preid[1:], b.preid[1:], k)
	return max(post, pre), cert && post >= pre && s.cert.certify(q.d, b, post)
}

// seqDist is SeqDist on the scratch's diagonals.
func (s *scratch) seqDist(a, b []int32, k int) int {
	d, diags := SeqDist(a, b, k, s.diags)
	s.diags = diags
	return d
}

// SeqDist returns the unit-cost edit distance between two label-id
// sequences — over a pair's postorder (or preorder) labels, Guha et al.'s
// lower bound on the number of tree edit operations, since a Tai mapping
// preserves both orders — or k+1 when it exceeds k. Equal ids match, so a
// label one tree lacks must get an id the other never uses: a negative one,
// on one side only. It is the banded program in diagonal-transition form
// (Ukkonen; Landau and Vishkin): for e = 0, 1, …, k it keeps, on each
// diagonal y − x within ±e, the furthest x that e operations reach — one
// step past a neighbour's, then slid along equal labels — and stops at the
// first e that reaches (|a|, |b|). That is O(k² + the slides) instead of
// |a|·(2k+1) cells. A k at or above max(|a|, |b|), which no distance
// exceeds, asks for the exact distance. diags is working memory, returned
// grown for the next call.
func SeqDist(a, b []int32, k int, diags []int) (int, []int) {
	m, n := len(a), len(b)
	if abs(m-n) > k {
		return k + 1, diags
	}
	k = min(k, max(m, n))
	diags = grow(diags, 2*k+3)
	fr, off := diags, k+1 // fr[off+d]: the furthest x on diagonal d
	for i := range fr {
		fr[i] = none
	}
	fr[off] = -1 // so that e = 0 starts diagonal 0 at x = 0
	for e := 0; e <= k; e++ {
		lo, hi := max(-e, -m), min(e, n)
		left := fr[off+lo-1] // diagonal d−1 before this round
		for d := lo; d <= hi; d++ {
			here, end := fr[off+d], min(m, n-d)
			x := min(max(here+1, fr[off+d+1]+1, left), end)
			left = here
			for x < end && a[x] == b[x+d] {
				x++
			}
			fr[off+d] = x
		}
		if fr[off+n-m] >= m {
			return e, diags
		}
	}
	return k + 1, diags
}

// scratch is one Within call's working memory, pooled: load's stack, the
// candidate's per-slot label counts, the candidate's decomposition, the
// sequence bound's diagonals, and the alignment certificate's memory.
type scratch struct {
	stack   []frame
	seen    []int32 // per query slot: the candidate's count so far; zero between calls
	t       decomp
	overlap int // Σ over labels of min(count in query, count in t)
	diags   []int
	cert    certScratch
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
	c := &s.cert
	if max(cap(s.stack), cap(s.seen), cap(s.t.label), cap(s.diags)/2, cap(c.partA), cap(c.partB), cap(c.path)/2) <= maxPooledNodes &&
		cap(c.rows) <= maxPooledCells {
		scratchPool.Put(s)
	}
}

// decompose fills the scratch's decomposition with t, labelled by the
// query's slots — −1 for a label the query lacks — in postorder (id) and
// in preorder (preid), and sets overlap to its label overlap with the
// query. Nothing is allocated once the pool is warm.
func (s *scratch) decompose(t *tree.Tree, q *Query) *decomp {
	d := &s.t
	s.stack = d.load(t, s.stack)
	d.id, d.preid = grow(d.id, d.n+1), grow(d.preid, d.n+1)
	s.seen = grow(s.seen, len(q.count))
	s.overlap = 0
	for y := 1; y <= d.n; y++ {
		slot, ok := q.slot[d.label[y]]
		if !ok {
			slot = -1
		} else if s.seen[slot]++; s.seen[slot] <= q.count[slot] {
			s.overlap++ // pairs with a query occurrence not yet paired
		}
		d.id[y], d.preid[d.pre[y]] = slot, slot
	}
	for _, slot := range d.id[1:] {
		if slot >= 0 {
			s.seen[slot] = 0
		}
	}
	return d
}
