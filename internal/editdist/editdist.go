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
// sequence bound, two DP bands and frontier-row early abandoning (see
// bounded.go, kernel.go); with no cutoff the same kernel runs as a
// doubling search over cutoffs.
// A caller verifying one tree against many prepares it once (Prepare) and
// asks Query.Within per candidate: a candidate the pre-checks reject costs
// one allocation-free walk and is never decomposed. Distance and
// DistanceWithin are that same path for a single pair.
// The package also exports the Guha et al. preorder/postorder sequence
// lower bound (reference [15]) as a baseline — the verifier runs it banded
// before the tree DP — and an exponential brute-force distance over Tai
// mappings used to validate the dynamic program in tests.
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
// (pre-checks, the sequence bound, two bands, early abandoning — see
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
	cmin   int // MinOpCost(cost)
	cutoff int // the WithCutoff cap on every Within, noCutoff if none
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
		d: d, height: t.Height(), slot: make(map[string]int32, d.n), count: make([]int32, 0, d.n),
		cost: cfg.cost, cmin: MinOpCost(cfg.cost), cutoff: cfg.cutoff,
	}
	d.id = make([]int32, d.n+1)
	for i := 1; i <= d.n; i++ {
		s, ok := q.slot[d.label[i]]
		if !ok {
			s = int32(len(q.count))
			q.slot[d.label[i]] = s
			q.count = append(q.count, 0)
		}
		q.count[s]++
		d.id[i] = s
	}
	d.gatherPre()
	for _, k := range d.keyroots {
		q.keys += int64(k - d.lml[k] + 1)
	}
	return q
}

// Within decides whether the edit distance from the query to t is at most
// cutoff (or the Prepare-time WithCutoff, whichever is tighter), with
// DistanceWithin's contract: (d, true) with the exact distance d ≤ cutoff,
// or (lb, false) with a certified lower bound lb > cutoff. When m is not
// nil it is overwritten with the call's accounting. One walk of t decides
// the empty, negative-cutoff and pre-check cases; only a candidate that
// survives them is decomposed, into pooled buffers, for the sequence bound
// and the kernel. With no cutoff (one at or above `unreachable`) and a
// per-operation minimum, the kernel runs the doubling search of bounded.go
// on that one decomposition.
func (q *Query) Within(t *tree.Tree, cutoff int, m *Metrics) (int, bool) {
	if m == nil {
		m = new(Metrics)
	}
	cutoff = min(cutoff, q.cutoff)
	// Models without a per-operation minimum have neither pre-checks nor
	// bands, so they skip the histogram and keep the band that covers every
	// cell.
	screen := q.cmin >= 1 && cutoff >= 0
	s := scratchPool.Get().(*scratch)
	defer s.release()
	w := s.measure(t, q, screen)
	*m = Metrics{FullCells: q.keys * w.keys}
	a, c := q.d, q.cost
	switch {
	case a.n == 0 || w.n == 0:
		d := a.totalCost(c.Delete) + s.decompose(t, q).totalCost(c.Insert)
		return d, d <= cutoff
	case cutoff < 0:
		// Distances are non-negative, so nothing is within a negative
		// cutoff; 0 is the trivial certified lower bound.
		m.Precheck = true
		return 0, false
	}
	band, lb := a.n+w.n, 0 // a band of |q|+|t| restricts nothing
	if screen {
		if lb = q.precheck(w); lb > cutoff {
			m.Precheck = true
			return lb, false
		}
	}
	b := s.decompose(t, q)
	switch {
	case !screen:
	case cutoff < unreachable:
		band = min(band, cutoff/q.cmin)
		if q.seqBound(s, b, band) > band {
			m.Precheck = true
			return cutoff + 1, false
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

// slotOf is the query's slot for a label, −1 for a label it does not have.
func (q *Query) slotOf(label string) int32 {
	if s, ok := q.slot[label]; ok {
		return s
	}
	return -1
}

// decomp holds the postorder decomposition of a tree used by the DP.
type decomp struct {
	n        int      // node count
	label    []string // label[i] = label of postorder node i (1-based)
	lml      []int    // lml[i]   = postorder index of leftmost leaf of i
	keyroots []int    // ascending LR-keyroots
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
}

// frame is a node whose children a walk is still visiting; the walks keep
// their own stack of them, so a tree's depth costs heap, not goroutine
// stack.
type frame struct {
	n       *tree.Node
	kid     int  // next child to visit
	start   int  // nodes visited before n: its subtree size once it is done
	first   int  // leftmost leaf of n's first child, once that is done
	keyroot bool // n is the root or has a left sibling
}

// decompose computes postorder labels, leftmost-leaf indices and the
// LR-keyroots of t (see load).
func decompose(t *tree.Tree) *decomp {
	n := t.Size()
	d := &decomp{label: make([]string, 0, n+1), lml: make([]int, 0, n+1), pre: make([]int, 0, n+1), keyroots: make([]int, 0, n)}
	d.load(t, nil)
	return d
}

// load fills d with t's decomposition, reusing d's slices and the given
// stack, and returns the stack for reuse. The keyroots are the nodes that
// are the root or have a left sibling — equivalently the highest node of
// each distinct leftmost path — recorded as the postorder walk finishes
// them, so they come out ascending. A node's preorder index is its depth
// (its ancestors: the stack below it) plus its leftmost leaf's postorder
// index (one more than the nodes left of it).
func (d *decomp) load(t *tree.Tree, stack []frame) []frame {
	d.n = 0
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
		d.label = append(d.label, f.n.Label)
		d.lml = append(d.lml, lml)
		d.pre = append(d.pre, lml+len(stack)-1)
		if f.keyroot {
			d.keyroots = append(d.keyroots, d.n)
		}
		stack = stack[:len(stack)-1]
		if p := len(stack) - 1; p >= 0 && stack[p].kid == 1 {
			stack[p].first = lml // n was its parent's first child
		}
	}
	return stack
}

// gatherPre fills preid from id through pre.
func (d *decomp) gatherPre() {
	d.preid = grow(d.preid, d.n+1)
	for i := 1; i <= d.n; i++ {
		d.preid[d.pre[i]] = d.id[i]
	}
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
