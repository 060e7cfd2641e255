package editdist

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"treesim/internal/tree"
)

// refCertify is the alignment certificate by the textbook: the full
// (|q|+1)×(|t|+1) Levenshtein table of the postorder label sequences — of
// the mirrored trees' for the preorder order — its optimal alignments
// walked back from the last cell depth first — aligning first, then
// deleting, then inserting — and each aligned pair checked against every
// pair taken before it for ancestry, read off the trees' parent links.
// Like certify it gives up after budget steps, a step being a move or a
// return from a cell with no move left, and it tells a walk that found a
// mapping from one that ran out of alignments and one that ran out of
// steps.
func refCertify(t1, t2 *tree.Tree, budget int, o order) outcome {
	if o == preorder {
		t1, t2 = mirrorTree(t1), mirrorTree(t2)
	}
	a, b := labelsOf(t1.PostOrder()), labelsOf(t2.PostOrder())
	var unit UnitCost
	dist := make([][]int, len(a)+1)
	for x := range dist {
		dist[x] = make([]int, len(b)+1)
		for y := range dist[x] {
			if x == 0 || y == 0 {
				dist[x][y] = x + y
				continue
			}
			dist[x][y] = min(dist[x-1][y-1]+unit.Relabel(a[x-1], b[y-1]), dist[x-1][y]+1, dist[x][y-1]+1)
		}
	}
	anc1, anc2 := ancestry(t1), ancestry(t2)
	var pairs [][2]int
	steps, broke := 0, false
	step := func() bool {
		if steps == budget {
			broke = true
			return false
		}
		steps++
		return true
	}
	var walk func(x, y int) bool
	walk = func(x, y int) bool {
		if x == 0 && y == 0 {
			return true
		}
		here := dist[x][y]
		if x > 0 && y > 0 && dist[x-1][y-1]+unit.Relabel(a[x-1], b[y-1]) == here &&
			!slices.ContainsFunc(pairs, func(p [2]int) bool { return anc1(p[0], x-1) != anc2(p[1], y-1) }) {
			if !step() {
				return false
			}
			pairs = append(pairs, [2]int{x - 1, y - 1})
			if walk(x-1, y-1) {
				return true
			}
			pairs = pairs[:len(pairs)-1]
		}
		if !broke && x > 0 && dist[x-1][y]+1 == here {
			if !step() || walk(x-1, y) {
				return !broke
			}
		}
		if !broke && y > 0 && dist[x][y-1]+1 == here {
			if !step() || walk(x, y-1) {
				return !broke
			}
		}
		step()
		return false
	}
	switch found := walk(len(a), len(b)); {
	case broke:
		return spent
	case found:
		return mapped
	}
	return exhausted
}

// mirrorTree returns a copy of t with every node's children reversed.
func mirrorTree(t *tree.Tree) *tree.Tree {
	var rec func(n *tree.Node) *tree.Node
	rec = func(n *tree.Node) *tree.Node {
		m := &tree.Node{Label: n.Label}
		for i := len(n.Children) - 1; i >= 0; i-- {
			m.Children = append(m.Children, rec(n.Children[i]))
		}
		return m
	}
	if t.IsEmpty() {
		return tree.New(nil)
	}
	return tree.New(rec(t.Root))
}

// ancestry returns whether the u-th node of t in postorder (0-based) is a
// proper ancestor of the v-th, by t's parent links.
func ancestry(t *tree.Tree) func(u, v int) bool {
	nodes := t.PostOrder()
	parent := map[*tree.Node]*tree.Node{}
	for _, n := range nodes {
		for _, c := range n.Children {
			parent[c] = n
		}
	}
	return func(u, v int) bool {
		for p := parent[nodes[v]]; p != nil; p = parent[p] {
			if p == nodes[u] {
				return true
			}
		}
		return false
	}
}

// TestAlignDistCertify: in each order alignDist is the unbanded sequence
// distance, capped at k+1, for every k up to past it, as SeqDist is, each
// order keeping its own frontiers; and from those certify ends each walk
// as the textbook walk through the full table ends it — a mapping, the
// optimal alignments exhausted, or the budget spent — on small trees over
// two labels, whose sequences have many optimal alignments, on degenerate
// shapes and on within-cluster pairs.
func TestAlignDistCertify(t *testing.T) {
	trees := []*tree.Tree{chain(9, fuzzLabels), star(9, fuzzLabels), leftHeavy(11), rightHeavy(8),
		tree.MustParse("x(y,a(z))"), tree.MustParse("a(b(c),d(e,f))"), tree.New(nil)}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 16; i++ {
		trees = append(trees, smallRandomTree(rng, 10, []string{"a", "b"}))
	}
	for _, p := range clusterPairs(t, midSpec, 4, 2) {
		trees = append(trees, p[0], p[1])
	}
	s := new(scratch)
	var ends [2][3]int // by order and outcome
	for _, t1 := range trees {
		q := Prepare(t1)
		for _, t2 := range trees {
			post, pre := refSeqBound(t1, t2)
			b := s.decompose(t2, q)
			orders := []struct {
				o    order
				a, b *decomp
				dist int
			}{{postorder, q.d, b, post}, {preorder, &q.mirror, &s.mirror, pre}}
			for _, c := range orders {
				for k := 0; k <= c.dist+2; k++ {
					if got := s.cert.alignDist(c.o, c.a.id[1:], c.b.id[1:], k); got != min(c.dist, k+1) {
						t.Fatalf("order %d: alignDist(%q, %q, %d) = %d, want %d", c.o, t1, t2, k, got, min(c.dist, k+1))
					}
				}
			}
			if q.d.n == 0 || b.n == 0 {
				continue
			}
			s.cert.roots = b.gatherParent(s.cert.roots)
			b.mirrorParents(&s.mirror)
			for _, c := range orders {
				want := refCertify(t1, t2, certifyBudget*(q.d.n+b.n), c.o)
				if got := s.cert.certify(c.o, c.a, c.b, c.dist); got != want {
					t.Fatalf("order %d: certify(%q, %q) = %d, reference %d", c.o, t1, t2, got, want)
				}
				ends[c.o][want]++
			}
		}
	}
	for o, byEnd := range ends {
		if byEnd[mapped] == 0 || byEnd[exhausted] == 0 || byEnd[spent] == 0 {
			t.Fatalf("order %d: %d walks mapped, %d exhausted, %d spent: want every end checked", o, byEnd[mapped], byEnd[exhausted], byEnd[spent])
		}
	}
	t.Logf("walks mapped, exhausted, spent by order: %v", ends)
}

// TestCertificate holds each end of the certificate to the textbook
// program, at the distance, one above it and with no cutoff: a certified
// pair is answered exactly with no cells, and every other pair reaches the
// kernel for the same exact answer. Certified, by the postorder walk: a
// leaf deleted, whose first traced alignment is the mapping; and an inner
// node deleted amid a run of its label, where the walk must come back from
// aligned pairs that break ancestry. By the mirrored walk: a pair whose
// preorder distance is the larger. Not certified: a pair at its postorder
// distance, or at its larger preorder one, whose mapping lies past the
// walk's budget, which proves no floor, so the kernel decides at that
// distance; a pair further apart than its postorder distance, or than its
// larger preorder one, so no optimal alignment is a mapping — the walk
// exhausts them, and the floor one above rejects the pair at the sequence
// distance before any cell; and a model that is not UnitCost, even one of
// unit costs.
func TestCertificate(t *testing.T) {
	m1, m2 := mirrored(2)
	mp := tree.MustParse
	unitLike := bandedWeighted{weighted{rel: 1, ins: 1, del: 1}}
	for _, c := range []struct {
		name   string
		t1, t2 *tree.Tree
		cost   CostModel
		o      order   // the larger sequence distance's order, postorder on a tie
		end    outcome // how its walk ends
	}{
		{"leaf deleted", mp("a(b(c,d),e(f),g)"), mp("a(b(c),e(f),g)"), UnitCost{}, postorder, mapped},
		{"walked back", mp("b(a,b(a,b),b,b)"), mp("b(a,a,b,b,b)"), UnitCost{}, postorder, mapped},
		{"over budget", mp("b(b(a,b(b(b))))"), mp("b(a,b(b(b)))"), UnitCost{}, postorder, spent},
		{"no mapping", m1, m2, UnitCost{}, postorder, exhausted},
		{"pre above post", mp("a(b(b(a(b,a),b)),a)"), mp("a(b(b(b,a(b),b)),a)"), UnitCost{}, preorder, mapped},
		{"mirror over budget", mp("b(a(a(a(b))),b)"), mp("b(b,b(b(a)),a)"), UnitCost{}, preorder, spent},
		{"mirror with no mapping", mp("a(b(b,a),a)"), mp("b(a(b,b))"), UnitCost{}, preorder, exhausted},
		{"unit-cost model", mp("a(b(c,d),e(f),g)"), mp("a(b(c),e(f),g)"), unitLike, postorder, mapped},
	} {
		full := textbookDistance(c.t1, c.t2, c.cost)
		post, pre := refSeqBound(c.t1, c.t2)
		seq := max(post, pre)
		if (pre > post) != (c.o == preorder) {
			t.Fatalf("%s: post %d, pre %d; want the larger in order %d", c.name, post, pre, c.o)
		}
		budget := certifyBudget * (c.t1.Size() + c.t2.Size())
		if end := refCertify(c.t1, c.t2, budget, c.o); end != c.end {
			t.Fatalf("%s: the reference walk ends %d, want %d", c.name, end, c.end)
		}
		switch c.end {
		case mapped:
			if full != seq {
				t.Fatalf("%s: distance %d, sequence distance %d; a mapping makes them equal", c.name, full, seq)
			}
		case spent:
			// A mapping lies past the budget: nothing proves a floor.
			if full != seq || refCertify(c.t1, c.t2, 1<<30, c.o) != mapped {
				t.Fatalf("%s: want a mapping at the sequence distance %d (distance %d) past a budget of %d steps",
					c.name, seq, full, budget)
			}
		case exhausted:
			if full <= seq {
				t.Fatalf("%s: sequence distance %d, distance %d; want the first below the second", c.name, seq, full)
			}
		}
		_, unit := c.cost.(UnitCost)
		certified := unit && c.end == mapped
		for _, cutoff := range []int{full, full + 1, math.MaxInt} {
			var m Metrics
			d, ok := DistanceWithin(c.t1, c.t2, cutoff, WithCost(c.cost), WithMetrics(&m))
			if d != full || !ok || m.Certified != certified || (m.Cells == 0) != certified {
				t.Errorf("%s at cutoff %d: (%d, %v, %+v); want (%d, true), certified %v with cells only without it",
					c.name, cutoff, d, ok, m, full, certified)
			}
		}
		if !unit || c.end != exhausted {
			continue
		}
		// At the sequence distance only the floor rejects: neither the
		// pre-checks nor the sequence bound exceed it.
		a, b := refDecompose(c.t1), refDecompose(c.t2)
		if lb := refPrecheckBound(c.t1, c.t2, a, b, 1); lb > seq {
			t.Fatalf("%s: the pre-checks bound %d above the sequence distance %d", c.name, lb, seq)
		}
		var m Metrics
		if d, ok := DistanceWithin(c.t1, c.t2, seq, WithMetrics(&m)); ok || d != seq+1 || !m.Precheck || m.Cells != 0 {
			t.Errorf("%s at cutoff %d: (%d, %v, %+v); want (%d, false) by the floor, with no cells", c.name, seq, d, ok, m, seq+1)
		}
	}
}

// FuzzCertify holds both walks, on decoded trees over two labels, to the
// full-table walk (refCertify) and to the textbook distance: each order's
// alignDist finds its sequence distance, certify ends as the reference
// ends within the budget, and with a far larger one a mapping makes that
// distance the tree distance while exhausted alignments put the tree
// distance above it — the certificate and the floor.
func FuzzCertify(f *testing.F) {
	mp := tree.MustParse
	for _, p := range [][2]string{
		{"b(a,b(a,b),b,b)", "b(a,a,b,b,b)"},
		{"b(b(a,b(b(b))))", "b(a,b(b(b)))"},
		{"a(b(b(a(b,a),b)),a)", "a(b(b(b,a(b),b)),a)"},
		{"b(a(a(a(b))),b)", "b(b,b(b(a)),a)"},
		{"a(b(b,a),a)", "b(a(b,b))"},
		{"b(b(a,b,b,b))", "a(a(b,b),b)"},
		{"a(b(b(a(b))))", "a(a(a(b(b)),a),b)"},
	} {
		f.Add(append(fuzzTree(mp(p[0])), fuzzTree(mp(p[1]))...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSrc{data}
		t1, t2 := twoLabels(src.tree()), twoLabels(src.tree())
		if t1.IsEmpty() || t2.IsEmpty() {
			return
		}
		full := textbookDistance(t1, t2, UnitCost{})
		post, pre := refSeqBound(t1, t2)
		q, s := Prepare(t1), new(scratch)
		b := s.decompose(t2, q)
		s.cert.roots = b.gatherParent(s.cert.roots)
		b.mirrorParents(&s.mirror)
		budget := certifyBudget * (q.d.n + b.n)
		for _, c := range []struct {
			o    order
			a, b *decomp
			dist int
		}{{postorder, q.d, b, post}, {preorder, &q.mirror, &s.mirror, pre}} {
			if got := s.cert.alignDist(c.o, c.a.id[1:], c.b.id[1:], c.dist); got != c.dist {
				t.Fatalf("order %d: alignDist(%q, %q) = %d, want %d", c.o, t1, t2, got, c.dist)
			}
			if got, want := s.cert.certify(c.o, c.a, c.b, c.dist), refCertify(t1, t2, budget, c.o); got != want {
				t.Fatalf("order %d: certify(%q, %q) = %d, reference %d", c.o, t1, t2, got, want)
			}
			switch refCertify(t1, t2, 1<<16, c.o) {
			case mapped:
				if full != c.dist {
					t.Fatalf("order %d: a mapping of cost %d, but the distance of %q and %q is %d", c.o, c.dist, t1, t2, full)
				}
			case exhausted:
				if full <= c.dist {
					t.Fatalf("order %d: no mapping of cost %d, but the distance of %q and %q is %d", c.o, c.dist, t1, t2, full)
				}
			}
		}
	})
}

// twoLabels relabels a decoded tree over the labels a and b, "c" reading
// as "a": two labels give the sequences the most optimal alignments.
func twoLabels(t *tree.Tree) *tree.Tree {
	t.Walk(func(n *tree.Node) bool {
		if n.Label == "c" {
			n.Label = "a"
		}
		return true
	})
	return t
}
