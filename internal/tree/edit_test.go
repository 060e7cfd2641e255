package tree

import "testing"

func TestRelabel(t *testing.T) {
	tr := MustParse("a(b)")
	Relabel(tr.Root.Children[0], "x")
	if tr.String() != "a(x)" {
		t.Errorf("after relabel: %q", tr.String())
	}
}

// TestDeletePaperExample reproduces the Section 3.1 example: deleting the
// second b of T1 = a(b(c,d),b(c,d),e) assigns its children c,d to a.
func TestDeletePaperExample(t *testing.T) {
	tr := paperT1()
	secondB := tr.Root.Children[1]
	if secondB.Label != "b" {
		t.Fatalf("expected b, got %q", secondB.Label)
	}
	if err := Delete(tr, secondB); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.String(), "a(b(c,d),c,d,e)"; got != want {
		t.Errorf("after delete: %q, want %q", got, want)
	}
}

func TestDeleteRoot(t *testing.T) {
	tr := MustParse("a(b(c,d))")
	if err := Delete(tr, tr.Root); err != nil {
		t.Fatalf("deleting single-child root: %v", err)
	}
	if got := tr.String(); got != "b(c,d)" {
		t.Errorf("after root delete: %q", got)
	}

	tr2 := MustParse("a(b,c)")
	if err := Delete(tr2, tr2.Root); err == nil {
		t.Error("deleting multi-child root should fail")
	}

	leaf := MustParse("a")
	if err := Delete(leaf, leaf.Root); err != nil {
		t.Fatalf("deleting the only node: %v", err)
	}
	if !leaf.IsEmpty() {
		t.Error("tree should be empty after deleting its only node")
	}
}

func TestDeleteForeignNode(t *testing.T) {
	tr := MustParse("a(b)")
	if err := Delete(tr, NewNode("z")); err != ErrNotInTree {
		t.Errorf("err = %v, want ErrNotInTree", err)
	}
}

// TestInsertPaperExample inverts the Section 3.1 example: inserting b under
// a of a(b(c,d),c,d,e), adopting children 1..2 (c,d), restores T1.
func TestInsertPaperExample(t *testing.T) {
	tr := MustParse("a(b(c,d),c,d,e)")
	n, err := Insert(tr, tr.Root, 1, 2, "b")
	if err != nil {
		t.Fatal(err)
	}
	if n.Label != "b" || n.Degree() != 2 {
		t.Errorf("inserted node %q with %d children", n.Label, n.Degree())
	}
	if !Equal(tr, paperT1()) {
		t.Errorf("after insert: %q, want %q", tr.String(), paperT1().String())
	}
}

func TestInsertBounds(t *testing.T) {
	tr := MustParse("a(b,c)")
	if _, err := Insert(tr, tr.Root, 3, 0, "x"); err == nil {
		t.Error("out-of-range position accepted")
	}
	if _, err := Insert(tr, tr.Root, 1, 2, "x"); err == nil {
		t.Error("out-of-range count accepted")
	}
	if _, err := Insert(tr, NewNode("z"), 0, 0, "x"); err != ErrNotInTree {
		t.Error("foreign parent accepted")
	}
	// Inserting a leaf (count 0) at the end.
	if _, err := Insert(tr, tr.Root, 2, 0, "x"); err != nil {
		t.Errorf("valid insert rejected: %v", err)
	}
	if got := tr.String(); got != "a(b,c,x)" {
		t.Errorf("after insert: %q", got)
	}
}

// TestInsertDeleteInverse checks that insert and delete are inverse
// operations, as the complementarity argument of Theorem 3.2 requires.
func TestInsertDeleteInverse(t *testing.T) {
	orig := MustParse("a(b,c,d,e)")
	tr := orig.Clone()
	n, err := Insert(tr, tr.Root, 1, 2, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != "a(b,x(c,d),e)" {
		t.Fatalf("after insert: %q", got)
	}
	if err := Delete(tr, n); err != nil {
		t.Fatal(err)
	}
	if !Equal(tr, orig) {
		t.Errorf("delete did not invert insert: %q", tr.String())
	}
}

func TestDeleteSizeInvariant(t *testing.T) {
	tr := paperT2()
	n := tr.Size()
	target := tr.Root.Children[0] // b with 3 children
	if err := Delete(tr, target); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != n-1 {
		t.Errorf("size after delete = %d, want %d", tr.Size(), n-1)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("tree invalid after delete: %v", err)
	}
}
