package branch

import (
	"testing"

	"treesim/internal/tree"
)

// TestDeepTrees: the recursive transforms and profilers must handle very
// deep trees (Go growable stacks make deep recursion safe; this guards
// against accidental quadratic blowups or depth limits).
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
