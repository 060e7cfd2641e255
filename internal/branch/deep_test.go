package branch

import (
	"runtime/debug"
	"testing"

	"treesim/internal/tree"
)

// TestDeepTrees: profiles of very deep and very wide trees are right, and
// the bounds between them hold (this guards against accidental quadratic
// blowups or depth limits; the tree package's own walks are recursive, so
// the trees stay within what a goroutine stack grows to comfortably).
func TestDeepTrees(t *testing.T) {
	const depth = 30000
	root := &tree.Node{Label: "n"}
	cur := root
	for i := 1; i < depth; i++ {
		c := &tree.Node{Label: "n"}
		cur.Children = []*tree.Node{c}
		cur = c
	}
	path := tree.New(root)
	if path.Size() != depth || path.Height() != depth {
		t.Fatalf("path tree malformed: size=%d height=%d", path.Size(), path.Height())
	}

	s := NewSpace(2)
	p := s.Profile(path)
	if p.Size != depth {
		t.Fatalf("profile size %d", p.Size)
	}
	// A label-uniform path has exactly two distinct branches:
	// (n, n, ε) ×(depth−1) and the leaf (n, ε, ε).
	if p.NonZero() != 2 {
		t.Fatalf("distinct branches = %d, want 2", p.NonZero())
	}

	// A second path one node shorter is one delete away; bounds respect it.
	shorter := path.Clone()
	nodes := shorter.PreOrder()
	if err := tree.Delete(shorter, nodes[len(nodes)-1]); err != nil {
		t.Fatal(err)
	}
	p2 := s.Profile(shorter)
	if bd := BDist(p, p2); bd > 5 {
		t.Fatalf("BDist after one delete = %d, want ≤ 5", bd)
	}
	if lb := SearchLBound(p, p2); lb > 1 {
		t.Fatalf("SearchLBound after one delete = %d, want ≤ 1", lb)
	}

	// Wide trees exercise the sibling chain in B(T).
	wide := &tree.Node{Label: "r"}
	for i := 0; i < 30000; i++ {
		wide.Children = append(wide.Children, &tree.Node{Label: "c"})
	}
	pw := s.Profile(tree.New(wide))
	if pw.Size != 30001 {
		t.Fatalf("wide profile size %d", pw.Size)
	}
}

// TestHugeTrees: the profiling walk keeps its own stack, so a tree's depth
// or width costs heap and no goroutine stack. With the stack capped at
// 1 MiB, a walk recursing a million levels deep would kill the process.
func TestHugeTrees(t *testing.T) {
	n := 1_000_000
	if raceEnabled || testing.Short() {
		n = 100_000
	}
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))

	// One backing array of nodes and one of child pointers a tree: node i
	// of the chain has the one child i+1, the star's root has all the rest.
	build := func(kids func(ptrs []*tree.Node, i int) []*tree.Node) *tree.Tree {
		nodes, ptrs := make([]tree.Node, n), make([]*tree.Node, n)
		for i := range nodes {
			nodes[i].Label, ptrs[i] = "n", &nodes[i]
		}
		for i := range nodes {
			nodes[i].Children = kids(ptrs, i)
		}
		return tree.New(&nodes[0])
	}
	s := NewSpace(2)
	chain := s.Profile(build(func(ptrs []*tree.Node, i int) []*tree.Node {
		return ptrs[i+1 : min(i+2, n)]
	}))
	// (n, n, ε) at every inner node — preorder i, postorder n+1−i — and the
	// leaf's (n, ε, ε).
	if chain.Size != n || chain.NonZero() != 2 || chain.Count(0) != n-1 || chain.Count(1) != 1 {
		t.Fatalf("chain: size %d, %d branches, counts %d and %d", chain.Size, chain.NonZero(), chain.Count(0), chain.Count(1))
	}
	if got, want := chain.Occurrences(0)[n-2], (Occurrence{Pre: int32(n - 1), Post: 2}); got != want {
		t.Fatalf("chain: deepest inner node at %v, want %v", got, want)
	}

	star := s.Profile(build(func(ptrs []*tree.Node, i int) []*tree.Node {
		if i > 0 {
			return nil
		}
		return ptrs[1:]
	}))
	// The root's (n, n, ε) and the last leaf's (n, ε, ε) are the chain's
	// branches; every other leaf is (n, ε, n), preorder i+1, postorder i.
	if star.Size != n || star.NonZero() != 3 || star.Count(2) != n-2 {
		t.Fatalf("star: size %d, %d branches, %d middle leaves", star.Size, star.NonZero(), star.Count(2))
	}
	if got, want := star.Occurrences(2)[n-3], (Occurrence{Pre: int32(n - 1), Post: int32(n - 2)}); got != want {
		t.Fatalf("star: last middle leaf at %v, want %v", got, want)
	}
	if got, want := star.Occurrences(0)[0], (Occurrence{Pre: 1, Post: int32(n)}); got != want {
		t.Fatalf("star: root at %v, want %v", got, want)
	}

	// Neither tree's scratch went back to the pool.
	if sc := scratchPool.Get().(*scratch); cap(sc.label) > maxPooledNodes {
		t.Fatalf("a scratch of %d nodes was pooled, cap is %d", cap(sc.label), maxPooledNodes)
	}
}
