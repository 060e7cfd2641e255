package editdist

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"treesim/internal/tree"
)

// refCertify is the alignment certificate by the textbook: the full
// (|q|+1)×(|t|+1) Levenshtein table of the postorder label sequences, its
// optimal alignments walked back from the last cell depth first — aligning
// first, then deleting, then inserting — and each aligned pair checked
// against every pair taken before it for ancestry, read off the trees'
// parent links. Like certify it gives up after budget steps, a step being
// a move or a return from a cell with no move left.
func refCertify(t1, t2 *tree.Tree, budget int) bool {
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
	steps, spent := 0, false
	step := func() bool {
		if steps == budget {
			spent = true
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
		if !spent && x > 0 && dist[x-1][y]+1 == here {
			if !step() || walk(x-1, y) {
				return !spent
			}
		}
		if !spent && y > 0 && dist[x][y-1]+1 == here {
			if !step() || walk(x, y-1) {
				return !spent
			}
		}
		step()
		return false
	}
	return walk(len(a), len(b)) && !spent
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

// TestAlignDistCertify: alignDist is the unbanded postorder distance,
// capped at k+1, for every k up to past it, as SeqDist is; and from its
// rows certify decides exactly what the textbook walk through the full
// table decides, budget included — on small trees over two labels, whose
// sequences have many optimal alignments, on degenerate shapes and on
// within-cluster pairs.
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
	certified, refused := 0, 0
	for _, t1 := range trees {
		q := Prepare(t1)
		for _, t2 := range trees {
			post, _ := refSeqBound(t1, t2)
			b := s.decompose(t2, q)
			for k := 0; k <= post+2; k++ {
				if got := s.cert.alignDist(q.d.id[1:], b.id[1:], k); got != min(post, k+1) {
					t.Fatalf("alignDist(%q, %q, %d) = %d, want %d", t1, t2, k, got, min(post, k+1))
				}
			}
			if q.d.n == 0 || b.n == 0 {
				continue
			}
			want := refCertify(t1, t2, certifyBudget*(q.d.n+b.n))
			if got := s.cert.certify(q.d, b, post); got != want {
				t.Fatalf("certify(%q, %q) = %v, reference %v", t1, t2, got, want)
			}
			if want {
				certified++
			} else {
				refused++
			}
		}
	}
	if certified == 0 || refused == 0 {
		t.Fatalf("%d pairs certified, %d refused: want both sides checked", certified, refused)
	}
}

// TestCertificate holds each side of the certificate to the textbook
// program, at the distance, one above it and with no cutoff: a certified
// pair is answered exactly with no cells, and every other pair reaches the
// kernel for the same exact answer. Certified: a leaf deleted, whose first
// traced alignment is the mapping; and an inner node deleted amid a run of
// its label, where the walk must come back from aligned pairs that break
// ancestry. Not certified: a pair at its postorder distance whose mapping
// lies past the walk's budget; a pair further apart than its postorder
// distance, so no optimal alignment is a mapping; a pair whose preorder
// distance is the larger; and a model that is not UnitCost, even one of
// unit costs.
func TestCertificate(t *testing.T) {
	m1, m2 := mirrored(2)
	unitLike := bandedWeighted{weighted{rel: 1, ins: 1, del: 1}}
	for _, c := range []struct {
		name      string
		t1, t2    *tree.Tree
		cost      CostModel
		certified bool
	}{
		{"leaf deleted", tree.MustParse("a(b(c,d),e(f),g)"), tree.MustParse("a(b(c),e(f),g)"), UnitCost{}, true},
		{"walked back", tree.MustParse("b(a,b(a,b),b,b)"), tree.MustParse("b(a,a,b,b,b)"), UnitCost{}, true},
		{"over budget", tree.MustParse("b(b(a,b(b(b))))"), tree.MustParse("b(a,b(b(b)))"), UnitCost{}, false},
		{"no mapping", m1, m2, UnitCost{}, false},
		{"pre above post", tree.MustParse("a(b(b(a(b,a),b)),a)"), tree.MustParse("a(b(b(b,a(b),b)),a)"), UnitCost{}, false},
		{"unit-cost model", tree.MustParse("a(b(c,d),e(f),g)"), tree.MustParse("a(b(c),e(f),g)"), unitLike, false},
	} {
		full := textbookDistance(c.t1, c.t2, c.cost)
		post, pre := refSeqBound(c.t1, c.t2)
		budget := certifyBudget * (c.t1.Size() + c.t2.Size())
		switch c.name {
		case "over budget":
			if post != full || pre > post || !refCertify(c.t1, c.t2, 1<<30) || refCertify(c.t1, c.t2, budget) {
				t.Fatalf("%s: want a mapping at the postorder distance %d (distance %d, pre %d) past a budget of %d steps",
					c.name, post, full, pre, budget)
			}
		case "no mapping":
			if post >= full || refCertify(c.t1, c.t2, 1<<30) {
				t.Fatalf("%s: postorder distance %d, distance %d; want the first below the second", c.name, post, full)
			}
		case "pre above post":
			if pre <= post {
				t.Fatalf("%s: pre %d, post %d; want pre > post", c.name, pre, post)
			}
		}
		for _, cutoff := range []int{full, full + 1, math.MaxInt} {
			var m Metrics
			d, ok := DistanceWithin(c.t1, c.t2, cutoff, WithCost(c.cost), WithMetrics(&m))
			if d != full || !ok || m.Certified != c.certified || (m.Cells == 0) != c.certified {
				t.Errorf("%s at cutoff %d: (%d, %v, %+v); want (%d, true), certified %v with cells only without it",
					c.name, cutoff, d, ok, m, full, c.certified)
			}
		}
	}
}
