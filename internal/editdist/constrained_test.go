package editdist

import (
	"math/rand"
	"testing"

	"treesim/internal/dblp"
	"treesim/internal/tree"
)

func TestConstrainedKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "a", 1},
		{"a", "a", 0},
		{"a", "b", 1},
		{"a(b)", "a", 1},
		{"a(b)", "a(c)", 1},
		{"a(b,c)", "a(b,c)", 0},
		{"a(b,c,d)", "a(x(b,c,d))", 1}, // single insert is constrained-legal
		{"a(x(b,c,d))", "a(b,c,d)", 1},
		{"a(b,c)", "a(c,b)", 2},
	}
	for _, c := range cases {
		got := ConstrainedDistance(tree.MustParse(c.a), tree.MustParse(c.b))
		if got != c.want {
			t.Errorf("ConstrainedDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestConstrainedUpperBoundsUnrestricted: the constrained distance never
// undercuts the unrestricted Zhang–Shasha distance.
func TestConstrainedUpperBoundsUnrestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	alphabet := []string{"a", "b", "c"}
	for trial := 0; trial < 300; trial++ {
		t1 := smallRandomTree(rng, 10, alphabet)
		t2 := smallRandomTree(rng, 10, alphabet)
		cd := ConstrainedDistance(t1, t2)
		ed := Distance(t1, t2)
		if cd < ed {
			t.Fatalf("constrained %d < unrestricted %d for %q vs %q", cd, ed, t1, t2)
		}
		if cd > t1.Size()+t2.Size() {
			t.Fatalf("constrained %d exceeds size sum for %q vs %q", cd, t1, t2)
		}
	}
}

// TestConstrainedStrictlyLarger: the classic separation — r(b,c,d) vs
// r(x(b,c),y(d)) needs two inserts unrestricted, but the constrained
// mapping may not split the separate subtrees b, c into one subtree x.
func TestConstrainedStrictlyLarger(t *testing.T) {
	t1 := tree.MustParse("r(b,c,d)")
	t2 := tree.MustParse("r(x(b,c),y(d))")
	ed := Distance(t1, t2)
	cd := ConstrainedDistance(t1, t2)
	if ed != 2 {
		t.Fatalf("unrestricted distance = %d, want 2", ed)
	}
	if cd <= ed {
		t.Fatalf("constrained %d should exceed unrestricted %d here", cd, ed)
	}
}

// TestConstrainedMetricAxioms: under unit costs the constrained distance
// is a metric (Zhang 1995).
func TestConstrainedMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	alphabet := []string{"a", "b"}
	trees := make([]*tree.Tree, 10)
	for i := range trees {
		trees[i] = smallRandomTree(rng, 9, alphabet)
	}
	for i, a := range trees {
		if ConstrainedDistance(a, a) != 0 {
			t.Errorf("self distance non-zero for %q", a)
		}
		for j, b := range trees {
			dab := ConstrainedDistance(a, b)
			if dab != ConstrainedDistance(b, a) {
				t.Errorf("asymmetric for %q, %q", a, b)
			}
			if dab == 0 && !tree.Equal(a, b) {
				t.Errorf("zero distance for distinct %q, %q", a, b)
			}
			for k, c := range trees {
				if k <= j || j <= i {
					continue
				}
				if ConstrainedDistance(a, c) > dab+ConstrainedDistance(b, c) {
					t.Errorf("triangle violated on %q, %q, %q", a, b, c)
				}
			}
		}
	}
}

// TestConstrainedAgreesOnSimpleEdits: for single relabels/inserts/deletes
// the constrained mapping is unrestricted, so the distances coincide.
func TestConstrainedAgreesOnSimpleEdits(t *testing.T) {
	base := tree.MustParse("a(b(c,d),e(f),g)")
	edits := []string{
		"a(b(c,d),e(f),g)",   // identical
		"a(b(c,x),e(f),g)",   // relabel
		"a(b(c,d),e(f))",     // delete leaf
		"a(b(c,d),e(f),g,h)", // insert leaf
		"a(b(c,d),e,f,g)",    // delete internal (f splices up)
	}
	for _, s := range edits {
		other := tree.MustParse(s)
		cd := ConstrainedDistance(base, other)
		ed := Distance(base, other)
		if cd != ed {
			t.Errorf("constrained %d != unrestricted %d for %q", cd, ed, s)
		}
	}
}

func TestConstrainedWeightedCosts(t *testing.T) {
	c := weighted{rel: 3, ins: 2, del: 5}
	t1 := tree.MustParse("a(b)")
	t2 := tree.MustParse("a(c,d)")
	// Optimal: relabel b→c (3) + insert d (2) = 5.
	if got := ConstrainedDistance(t1, t2, WithCost(c)); got != 5 {
		t.Errorf("weighted constrained = %d, want 5", got)
	}
	if got := ConstrainedDistance(tree.New(nil), t2, WithCost(c)); got != 6 {
		t.Errorf("insert-all = %d, want 6", got)
	}
	if got := ConstrainedDistance(t1, tree.New(nil), WithCost(c)); got != 10 {
		t.Errorf("delete-all = %d, want 10", got)
	}
}

// TestConstrainedIsUpperBoundForBranchFilter: BDist/5 ≤ EDist ≤
// ConstrainedDistance — the sandwich that lets the constrained distance
// seed pruning radii.
func TestConstrainedSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	alphabet := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 100; trial++ {
		t1 := smallRandomTree(rng, 12, alphabet)
		t2 := smallRandomTree(rng, 12, alphabet)
		ed := Distance(t1, t2)
		cd := ConstrainedDistance(t1, t2)
		if !(ed <= cd) {
			t.Fatalf("sandwich violated: ed=%d cd=%d", ed, cd)
		}
	}
}

// BenchmarkConstrainedDistance is the constrained distance's rung over the
// pairs BenchmarkDistanceWithin verifies: small refine-sized pairs,
// knn_bigtree's 150-node within-cluster pairs, and one DBLP record against
// the others. An op is one pair, decompositions included.
func BenchmarkConstrainedDistance(b *testing.B) {
	recs := dblp.New(1).Dataset(1000)
	records := make([][2]*tree.Tree, len(recs)-1)
	for i := range records {
		records[i] = [2]*tree.Tree{recs[0], recs[i+1]}
	}
	for _, bc := range []struct {
		name  string
		pairs [][2]*tree.Tree
	}{
		{"small", benchPairs(64)},
		{"big", clusterPairs(b, bigSpec, 11, 8)},
		{"dblp", records},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := bc.pairs[i%len(bc.pairs)]
				ConstrainedDistance(p[0], p[1])
			}
		})
	}
}
