package tree

import (
	"strings"
	"testing"
)

func labelsOf(nodes []*Node) string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Label
	}
	return strings.Join(out, "")
}

func TestPreOrder(t *testing.T) {
	// T1 of the paper: preorder a b c d b c d e (Fig. 2 numbering).
	got := labelsOf(MustParse("a(b(c,d),b(c,d),e)").PreOrder())
	if got != "abcdbcde" {
		t.Errorf("preorder = %q, want %q", got, "abcdbcde")
	}
}

func TestPostOrder(t *testing.T) {
	// T1 of the paper: postorder c d b c d b e a (Fig. 2 numbering).
	got := labelsOf(MustParse("a(b(c,d),b(c,d),e)").PostOrder())
	if got != "cdbcdbea" {
		t.Errorf("postorder = %q, want %q", got, "cdbcdbea")
	}
}

func TestWalkPrune(t *testing.T) {
	tr := MustParse("a(b(c,d),e)")
	var visited []string
	tr.Walk(func(n *Node) bool {
		visited = append(visited, n.Label)
		return n.Label != "b" // prune below b
	})
	if got := strings.Join(visited, ""); got != "abe" {
		t.Errorf("pruned walk = %q, want %q", got, "abe")
	}
}

// TestNumberMatchesPaperFigure2 checks the (pre, post) numbering of both
// paper trees against the annotations in Fig. 2.
func TestNumberMatchesPaperFigure2(t *testing.T) {
	type pp struct{ pre, post int }
	check := func(name string, tr *Tree, want []pp) {
		t.Helper()
		pos := tr.Number()
		if len(pos.Nodes) != len(want) {
			t.Fatalf("%s: %d nodes, want %d", name, len(pos.Nodes), len(want))
		}
		for i, n := range pos.Nodes {
			if pos.Pre[n] != want[i].pre || pos.Post[n] != want[i].post {
				t.Errorf("%s: node %d (%q) = (%d,%d), want (%d,%d)",
					name, i, n.Label, pos.Pre[n], pos.Post[n], want[i].pre, want[i].post)
			}
		}
	}
	// Fig. 2, B(T1): a(1,8) b(2,3) c(3,1) d(4,2) b(5,6) c(6,4) d(7,5) e(8,7).
	check("T1", paperT1(), []pp{
		{1, 8}, {2, 3}, {3, 1}, {4, 2}, {5, 6}, {6, 4}, {7, 5}, {8, 7},
	})
	// Fig. 2, B(T2): a(1,9) b(2,5) c(3,1) d(4,2) b(5,4) e(6,3) c(7,6) d(8,7) e(9,8).
	check("T2", paperT2(), []pp{
		{1, 9}, {2, 5}, {3, 1}, {4, 2}, {5, 4}, {6, 3}, {7, 6}, {8, 7}, {9, 8},
	})
}

func TestEmptyTraversals(t *testing.T) {
	e := New(nil)
	if len(e.PreOrder()) != 0 || len(e.PostOrder()) != 0 {
		t.Error("empty tree traversals should be empty")
	}
	pos := e.Number()
	if len(pos.Nodes) != 0 {
		t.Error("empty tree numbering should be empty")
	}
}
