package branch_test

import (
	"math/rand"
	"strings"
	"testing"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/editdist"
	"treesim/internal/invfile"
	"treesim/internal/tree"
)

// The reference the flat layout is held to: a map from each branch to its
// occurrence list, built straight from Space.Branches, with every derived
// quantity computed the slow obvious way — L1 over the maps' counts, the
// positional matching by augmenting paths only (never the greedy sweeps),
// SearchLBound by a linear scan of pr (never the binary search).

type refProfile struct {
	size int
	pos  map[branch.Dim][]branch.Occurrence // a branch's count is its list's length
}

func refOf(s *branch.Space, t *tree.Tree) *refProfile {
	p := &refProfile{pos: make(map[branch.Dim][]branch.Occurrence)}
	p.size = s.Branches(t, func(d branch.Dim, pre, post int32) {
		p.pos[d] = append(p.pos[d], branch.Occurrence{Pre: pre, Post: post})
	})
	return p
}

// refBDist is the L1 distance of the two branch vectors.
func refBDist(a, b *refProfile) int {
	l1 := 0
	for d, occ := range a.pos {
		l1 += abs(len(occ) - len(b.pos[d]))
	}
	for d, occ := range b.pos {
		if _, ok := a.pos[d]; !ok {
			l1 += len(occ)
		}
	}
	return l1
}

// refLabelL1 is the L1 distance of the two trees' label histograms,
// counted node by node.
func refLabelL1(a, b *tree.Tree) int {
	h := map[string]int{}
	a.Walk(func(n *tree.Node) bool { h[n.Label]++; return true })
	b.Walk(func(n *tree.Node) bool { h[n.Label]--; return true })
	l1 := 0
	for _, c := range h {
		l1 += abs(c)
	}
	return l1
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestRefBDistPaperPair anchors the reference itself to the hand-computed
// vectors of Fig. 3: L1 distance 9, 0 to itself, and T1's node count to
// the empty tree.
func TestRefBDistPaperPair(t *testing.T) {
	s := branch.NewSpace(2)
	t1 := refOf(s, tree.MustParse("a(b(c,d),b(c,d),e)"))
	t2 := refOf(s, tree.MustParse("a(b(c,d,b(e)),c,d,e)"))
	empty := refOf(s, tree.New(nil))
	if d := refBDist(t1, t2); d != 9 || refBDist(t2, t1) != 9 {
		t.Errorf("reference BDist(T1,T2) = %d, want 9 both ways", d)
	}
	if refBDist(t1, t1) != 0 || refBDist(t1, empty) != 8 {
		t.Errorf("reference BDist: T1 to itself %d, to empty %d; want 0 and 8",
			refBDist(t1, t1), refBDist(t1, empty))
	}
}

func refPosBDist(a, b *refProfile, pr int) int {
	matched := 0
	for d, occ := range a.pos {
		matched += kuhn(occ, b.pos[d], pr)
	}
	return a.size + b.size - 2*matched
}

// kuhn is a maximum bipartite matching of occurrences whose preorder and
// postorder positions both differ by at most pr.
func kuhn(av, bv []branch.Occurrence, pr int) int {
	near := func(x, y int32) bool { return x-y <= int32(pr) && y-x <= int32(pr) }
	matchB := make([]int, len(bv))
	for j := range matchB {
		matchB[j] = -1
	}
	var try func(i int, seen []bool) bool
	try = func(i int, seen []bool) bool {
		for j, b := range bv {
			if seen[j] || !near(av[i].Pre, b.Pre) || !near(av[i].Post, b.Post) {
				continue
			}
			seen[j] = true
			if matchB[j] < 0 || try(matchB[j], seen) {
				matchB[j] = i
				return true
			}
		}
		return false
	}
	m := 0
	for i := range av {
		if try(i, make([]bool, len(bv))) {
			m++
		}
	}
	return m
}

func refSearchLBound(a, b *refProfile, f int) int {
	pr := a.size - b.size
	if pr < 0 {
		pr = -pr
	}
	for refPosBDist(a, b, pr) > f*pr {
		pr++
	}
	return pr
}

func refRangeLowerBound(a, b *refProfile, f, tau int) int {
	return max((refPosBDist(a, b, tau)+f-1)/f, refSearchLBound(a, b, f))
}

// cascadePair builds the two trees of one fuzz case. Besides random trees
// the shapes cover the degenerate cases of the positional matching: an
// ancestor chain a(a(a(…))) (postorder descends along each occurrence
// list), a star (one branch repeated across siblings), chain×star, and
// single-label random trees, where occurrence lists are long and neither
// ascending nor descending in postorder — the augmenting-path regime.
func cascadePair(seed int64, shape, size, edits uint8) (*tree.Tree, *tree.Tree) {
	n := 1 + int(size)%24
	spec := datagen.Spec{FanoutMean: 2.5, FanoutStd: 1, SizeMean: float64(n), SizeStd: 2, Labels: 3, Decay: 0.1}
	var t1 *tree.Tree
	switch shape % 5 {
	case 0:
		t1 = datagen.New(spec, seed).Seed()
	case 1:
		root := tree.NewNode("a")
		for cur, i := root, 1; i < n; i++ {
			c := tree.NewNode("a")
			cur.Children = []*tree.Node{c}
			cur = c
		}
		t1 = tree.New(root)
	case 2:
		root := tree.NewNode("r")
		for i := 0; i < n; i++ {
			root.Children = append(root.Children, tree.NewNode("c"))
		}
		t1 = tree.New(root)
	case 3:
		root := tree.NewNode("a")
		for cur, i := root, 0; i < 1+n/4; i++ {
			next := tree.NewNode("a")
			cur.Children = []*tree.Node{tree.NewNode("c"), next, tree.NewNode("c"), tree.NewNode("c")}
			cur = next
		}
		t1 = tree.New(root)
	default:
		spec.Labels = 1
		t1 = datagen.New(spec, seed).Seed()
	}
	g := datagen.New(spec, seed+1)
	if edits%8 == 7 {
		return t1, g.Seed() // an unrelated tree
	}
	return t1, g.RandomEdits(t1, int(edits)%8)
}

// wideStar is r(c, …, c) with 40 leaves: its branch c(ε, c) occurs 39
// times, more than a posting's count bits hold.
var wideStar = tree.MustParse("r(" + strings.Repeat("c,", 39) + "c)")

// FuzzBoundCascade holds the filter's tiers to their contract on one pair
// of trees, for q ∈ {2,3,4}:
//
//   - soundness and order: max(||q|−|t||, ⌈BDist/f⌉) ≤ SearchLBound ≤ EDist
//     (the two cheap tiers are not ordered between themselves);
//   - the flat layout's BDist, PosBDist and SearchLBound equal the
//     reference's, and a lookup-only query profile gives what an interned
//     one gives;
//   - BDistWithin, from both profiles and at every limit 0…BDist+2, is
//     within exactly when BDist ≤ limit, returns BDist then and otherwise
//     a bound in (limit, BDist];
//   - the postings sweep over an inverted file of several trees (t2, t1
//     and a wide star) gives each of them the merge-join's BDist, and its
//     label sweep a bound ⌈L1'/2⌉ ≤ ⌈L1/2⌉ ≤ EDist, with L1 the exact
//     label-histogram distance (Kailing et al.);
//   - for every tau the cascade — size tier, BDist tier, then the
//     one-probe RangeLowerBoundWithin — keeps exactly the pairs with
//     RangeLowerBound ≤ tau and reports that bound for them, and never
//     prunes a pair within tau;
//   - from both profiles, the search's predicate holds at every pr exactly
//     when PosBDist(pr) ≤ f·pr, and SearchLBoundWithin at every θ from 0
//     to max(|a|,|b|)+1 and every floor among 0, ⌈BDist/f⌉ and those
//     around SearchLBound is max(floor, SearchLBound) when that is at most
//     θ, else a value in (θ, max(floor, SearchLBound)].
func FuzzBoundCascade(f *testing.F) {
	for shape := uint8(0); shape < 5; shape++ {
		f.Add(int64(shape)+1, shape, uint8(9), uint8(2))
		f.Add(int64(shape)+11, shape, uint8(17), uint8(5))
		f.Add(int64(shape)+21, shape, uint8(5), uint8(7))
	}
	// A chain pair and a star pair at the largest size: long occurrence
	// lists, and a size window the ceiling cuts short.
	f.Add(int64(31), uint8(1), uint8(23), uint8(1))
	f.Add(int64(32), uint8(2), uint8(23), uint8(3))
	f.Fuzz(checkCascade)
}

func checkCascade(t *testing.T, seed int64, shape, size, edits uint8) {
	t1, t2 := cascadePair(seed, shape, size, edits)
	ed := editdist.Distance(t1, t2)
	indexedTrees := []*tree.Tree{wideStar, t1, t2, t1}
	dists := []int{editdist.Distance(t1, wideStar), 0, ed, 0}
	for _, q := range []int{2, 3, 4} {
		fac := branch.Factor(q)
		s := branch.NewSpace(q)
		b := s.Profile(t2)
		// Before t1's branches are interned: the lookup-only profile
		// must leave the space alone and bound exactly like the
		// interned one does afterwards.
		vocab := s.Size()
		qp := s.QueryProfile(t1)
		if s.Size() != vocab {
			t.Fatalf("q=%d: QueryProfile grew the space %d -> %d", q, vocab, s.Size())
		}
		lookupBD, lookupLB := branch.BDist(qp, b), branch.SearchLBound(qp, b)
		a := s.Profile(t1)
		// The inverted file holds several trees, so lists interleave them:
		// a star whose branch repeats past a posting's count bits, and t1
		// twice around t2.
		indexed := []*branch.Profile{s.Profile(wideStar), a, b, s.Profile(t1)}
		ov := make([]int32, len(indexed))
		x := invfile.Build(indexed)
		x.Overlaps(qp, ov)
		lov := make([]int32, len(indexed))
		base := x.LabelOverlaps(s.QueryLabels(t1, nil), lov)
		ra, rb := refOf(s, t1), refOf(s, t2)

		bd, slb := branch.BDist(a, b), branch.SearchLBound(a, b)
		if want := refBDist(ra, rb); bd != want || lookupBD != want {
			t.Fatalf("q=%d: BDist flat %d, lookup %d, reference %d\n %s\n %s", q, bd, lookupBD, want, t1, t2)
		}
		// The lookup profile lacks t1's unknown branches as coordinates, so
		// it exercises the early exit with Size above the counts' sum.
		for name, p := range map[string]*branch.Profile{"interned": a, "lookup": qp} {
			for limit := 0; limit <= bd+2; limit++ {
				lb, ok := branch.BDistWithin(p, b, limit)
				switch {
				case ok != (bd <= limit):
					t.Fatalf("q=%d %s: BDistWithin(%d) ok=%v, BDist %d\n %s\n %s", q, name, limit, ok, bd, t1, t2)
				case ok && lb != bd:
					t.Fatalf("q=%d %s: BDistWithin(%d) = %d within, BDist %d\n %s\n %s", q, name, limit, lb, bd, t1, t2)
				case !ok && (lb <= limit || lb > bd):
					t.Fatalf("q=%d %s: BDistWithin(%d) = %d outside (%d, %d]\n %s\n %s", q, name, limit, lb, limit, bd, t1, t2)
				}
			}
		}
		for i, p := range indexed {
			if got, want := qp.Size+p.Size-2*int(ov[i]), branch.BDist(qp, p); got != want {
				t.Fatalf("q=%d: swept BDist to indexed tree %d is %d, merge-join %d\n %s\n %s", q, i, got, want, t1, t2)
			}
			swept := max(0, (qp.Size+p.Size-2*int(base+lov[i])+1)/2)
			exact := (refLabelL1(t1, indexedTrees[i]) + 1) / 2
			if swept > exact || exact > dists[i] {
				t.Fatalf("q=%d: indexed tree %d: swept label bound %d, exact %d, EDist %d\n %s\n %s",
					q, i, swept, exact, dists[i], t1, indexedTrees[i])
			}
		}
		if want := refSearchLBound(ra, rb, fac); slb != want || lookupLB != want {
			t.Fatalf("q=%d: SearchLBound flat %d, lookup %d, reference %d\n %s\n %s", q, slb, lookupLB, want, t1, t2)
		}
		ds := a.Size - b.Size
		if ds < 0 {
			ds = -ds
		}
		plain := (bd + fac - 1) / fac
		if ds > slb || plain > slb || slb > ed {
			t.Fatalf("q=%d: size %d, ⌈BDist/f⌉ %d, SearchLBound %d, EDist %d out of order\n %s\n %s",
				q, ds, plain, slb, ed, t1, t2)
		}

		top := max(a.Size, b.Size) + 1
		for name, p := range map[string]*branch.Profile{"interned": a, "lookup": qp} {
			for pr := 0; pr <= top; pr++ {
				if got, want := branch.Holds(p, b, pr), branch.PosBDist(p, b, pr) <= fac*pr; got != want {
					t.Fatalf("q=%d %s: holds(%d) = %v, PosBDist %d\n %s\n %s", q, name, pr, got, branch.PosBDist(p, b, pr), t1, t2)
				}
			}
			for _, floor := range []int{0, plain, max(0, slb-1), slb, slb + 1} {
				want := max(floor, slb)
				for theta := 0; theta <= top; theta++ {
					got := branch.SearchLBoundWithin(p, b, floor, theta)
					if want <= theta && got != want || want > theta && (got <= theta || got > want) {
						t.Fatalf("q=%d %s: SearchLBoundWithin(floor %d, θ %d) = %d, SearchLBound %d\n %s\n %s",
							q, name, floor, theta, got, slb, t1, t2)
					}
				}
			}
		}

		for tau := 0; tau <= top; tau++ {
			if got, want := branch.PosBDist(a, b, tau), refPosBDist(ra, rb, tau); got != want {
				t.Fatalf("q=%d: PosBDist(%d) flat %d, reference %d\n %s\n %s", q, tau, got, want, t1, t2)
			}
			want := branch.RangeLowerBound(a, b, tau)
			if ref := refRangeLowerBound(ra, rb, fac, tau); want != ref {
				t.Fatalf("q=%d: RangeLowerBound(%d) flat %d, reference %d\n %s\n %s", q, tau, want, ref, t1, t2)
			}
			got, ok := branch.RangeLowerBoundWithin(qp, b, tau)
			keep := ds <= tau && plain <= tau && ok
			switch {
			case keep != (want <= tau):
				t.Fatalf("q=%d tau=%d: cascade keeps=%v but RangeLowerBound is %d\n %s\n %s", q, tau, keep, want, t1, t2)
			case ok && got != want:
				t.Fatalf("q=%d tau=%d: surviving bound %d, RangeLowerBound %d\n %s\n %s", q, tau, got, want, t1, t2)
			case !ok && got <= tau:
				t.Fatalf("q=%d tau=%d: pruned with bound %d ≤ tau\n %s\n %s", q, tau, got, t1, t2)
			case !keep && ed <= tau:
				t.Fatalf("q=%d tau=%d: cascade pruned a pair at distance %d\n %s\n %s", q, tau, ed, t1, t2)
			}
		}
	}
}

// TestBoundCascadeRandom runs the fuzz property over a few hundred seeded
// cases of every shape, so plain `go test` covers it without the fuzzer.
func TestBoundCascadeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		checkCascade(t, rng.Int63(), uint8(i), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
}
