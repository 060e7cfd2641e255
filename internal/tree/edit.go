package tree

import (
	"errors"
	"fmt"
)

// The three edit operations of Section 2.1. Each operation mutates the tree
// in place and corresponds to exactly one unit of unit-cost edit distance:
//
//   - Relabel changes the label of a node.
//   - Delete removes a node n, splicing n's children into n's former
//     position among the children of n's parent.
//   - Insert adds a node n under a parent node, adopting a consecutive run
//     of the parent's children as the children of n.
//
// The root may only be deleted when it has exactly one child (the child
// becomes the new root); otherwise deletion would leave a forest.

// ErrNotInTree is returned when an operation names a node that is not part
// of the target tree.
var ErrNotInTree = errors.New("tree: node is not part of the tree")

// Relabel changes the label of n to label.
func Relabel(n *Node, label string) { n.Label = label }

// Delete removes n from t. The children of n take n's place, in order,
// among the children of n's parent. Deleting the root is allowed only when
// the root has exactly one child.
func Delete(t *Tree, n *Node) error {
	if t.IsEmpty() {
		return ErrNotInTree
	}
	if n == t.Root {
		switch len(n.Children) {
		case 0:
			t.Root = nil
			return nil
		case 1:
			t.Root = n.Children[0]
			return nil
		default:
			return fmt.Errorf("tree: cannot delete root %q with %d children", n.Label, len(n.Children))
		}
	}
	parent, idx := findParent(t.Root, n)
	if parent == nil {
		return ErrNotInTree
	}
	// Splice n's children into n's slot.
	repl := make([]*Node, 0, len(parent.Children)-1+len(n.Children))
	repl = append(repl, parent.Children[:idx]...)
	repl = append(repl, n.Children...)
	repl = append(repl, parent.Children[idx+1:]...)
	parent.Children = repl
	n.Children = nil
	return nil
}

// findParent returns the parent of target under root and target's index
// among the parent's children, or (nil, -1) if target is not reachable.
func findParent(root, target *Node) (*Node, int) {
	for i, c := range root.Children {
		if c == target {
			return root, i
		}
		if p, idx := findParent(c, target); p != nil {
			return p, idx
		}
	}
	return nil, -1
}

// Insert creates a new node with the given label as the pos-th child of
// parent, adopting the count consecutive children of parent starting at pos
// as its own children. pos must be in [0, parent.Degree()] and count in
// [0, parent.Degree()-pos]. It returns the inserted node.
func Insert(t *Tree, parent *Node, pos, count int, label string) (*Node, error) {
	if t.IsEmpty() || !contains(t.Root, parent) {
		return nil, ErrNotInTree
	}
	if pos < 0 || pos > len(parent.Children) {
		return nil, fmt.Errorf("tree: insert position %d out of range [0,%d]", pos, len(parent.Children))
	}
	if count < 0 || pos+count > len(parent.Children) {
		return nil, fmt.Errorf("tree: insert child count %d out of range [0,%d]", count, len(parent.Children)-pos)
	}
	n := &Node{Label: label}
	if count > 0 {
		n.Children = make([]*Node, count)
		copy(n.Children, parent.Children[pos:pos+count])
	}
	repl := make([]*Node, 0, len(parent.Children)-count+1)
	repl = append(repl, parent.Children[:pos]...)
	repl = append(repl, n)
	repl = append(repl, parent.Children[pos+count:]...)
	parent.Children = repl
	return n, nil
}

func contains(root, target *Node) bool {
	if root == target {
		return true
	}
	for _, c := range root.Children {
		if contains(c, target) {
			return true
		}
	}
	return false
}
