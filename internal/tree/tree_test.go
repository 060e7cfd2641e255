package tree

import (
	"runtime"
	"testing"
)

// paperT1 and paperT2 are the example trees of Fig. 1 of the paper,
// reconstructed from the node numbering of Fig. 2:
// T1 = a(b(c,d), b(c,d), e), T2 = a(b(c,d,b(e)), c, d, e).
func paperT1() *Tree { return MustParse("a(b(c,d),b(c,d),e)") }
func paperT2() *Tree { return MustParse("a(b(c,d,b(e)),c,d,e)") }

func TestSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"a", 1},
		{"a(b)", 2},
		{"a(b,c)", 3},
		{"a(b(c,d),b(c,d),e)", 8},
		{"a(b(c,d,b(e)),c,d,e)", 9},
	}
	for _, c := range cases {
		if got := MustParse(c.in).Size(); got != c.want {
			t.Errorf("Size(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestHeight(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"a", 1},
		{"a(b)", 2},
		{"a(b,c)", 2},
		{"a(b(c(d)))", 4},
		{"a(b(c,d),b(c,d),e)", 3},
	}
	for _, c := range cases {
		if got := MustParse(c.in).Height(); got != c.want {
			t.Errorf("Height(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLeaves(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"a", 1},
		{"a(b,c)", 2},
		{"a(b(c,d),b(c,d),e)", 5},
	}
	for _, c := range cases {
		if got := MustParse(c.in).Leaves(); got != c.want {
			t.Errorf("Leaves(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"", "", true},
		{"", "a", false},
		{"a", "a", true},
		{"a", "b", false},
		{"a(b,c)", "a(b,c)", true},
		{"a(b,c)", "a(c,b)", false}, // sibling order matters
		{"a(b(c))", "a(b,c)", false},
	}
	for _, c := range cases {
		if got := Equal(MustParse(c.a), MustParse(c.b)); got != c.want {
			t.Errorf("Equal(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := paperT1()
	cp := orig.Clone()
	if !Equal(orig, cp) {
		t.Fatalf("clone differs: %v vs %v", orig, cp)
	}
	cp.Root.Children[0].Label = "changed"
	cp.Root.Children = cp.Root.Children[:1]
	if !Equal(orig, paperT1()) {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestValidate(t *testing.T) {
	if err := paperT1().Validate(); err != nil {
		t.Errorf("valid tree reported invalid: %v", err)
	}
	if err := New(nil).Validate(); err != nil {
		t.Errorf("empty tree reported invalid: %v", err)
	}

	shared := NewNode("x")
	dag := New(NewNode("r", shared, shared))
	if err := dag.Validate(); err == nil {
		t.Error("shared node not detected")
	}

	withNil := New(&Node{Label: "r", Children: []*Node{nil}})
	if err := withNil.Validate(); err == nil {
		t.Error("nil child not detected")
	}

	// Deeper down, each error names the offending node's path.
	shared = NewNode("x")
	dag = New(NewNode("r", NewNode("a"), NewNode("b", NewNode("c", shared), shared)))
	if err := dag.Validate(); err == nil || err.Error() != `tree: node "x" at root.1.1 is reachable twice` {
		t.Errorf("shared node: %v", err)
	}
	withNil = New(NewNode("r", NewNode("a"), &Node{Label: "b", Children: []*Node{NewNode("c"), nil}}))
	if err := withNil.Validate(); err == nil || err.Error() != "tree: nil node at root.1.1" {
		t.Errorf("nil child: %v", err)
	}
}

// TestValidateHugeChain: a 10⁵-node chain validates in memory linear in
// its size. A path string built per node, as a recursive walk did, costs
// O(depth) bytes a node: gigabytes here.
func TestValidateHugeChain(t *testing.T) {
	const n = 100_000
	root := NewNode("a")
	for at, i := root, 1; i < n; i++ {
		at.Children = []*Node{NewNode("a")}
		at = at.Children[0]
	}
	chain := New(root)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := chain.Validate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if perNode := (after.TotalAlloc - before.TotalAlloc) / n; perNode > 256 {
		t.Fatalf("Validate allocated %d bytes a node on a %d-node chain", perNode, n)
	}
}

func TestNodeHelpers(t *testing.T) {
	n := NewNode("a", NewNode("b"), NewNode("c"))
	if n.IsLeaf() {
		t.Error("node with children reported as leaf")
	}
	if !n.Children[0].IsLeaf() {
		t.Error("leaf not reported as leaf")
	}
	if n.Degree() != 2 {
		t.Errorf("Degree = %d, want 2", n.Degree())
	}
}

func TestEmptyTreeAccessors(t *testing.T) {
	var e *Tree
	if !e.IsEmpty() || e.Size() != 0 || e.Height() != 0 || e.Leaves() != 0 {
		t.Error("nil *Tree should behave as the empty tree")
	}
	z := New(nil)
	if !z.IsEmpty() || z.Size() != 0 {
		t.Error("New(nil) should be the empty tree")
	}
	if got := z.Clone(); !got.IsEmpty() {
		t.Error("clone of empty tree should be empty")
	}
}
