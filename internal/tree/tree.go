// Package tree implements rooted, ordered, labeled trees — the data model of
// the paper (Section 2). A tree T = (N, E, Root(T), label) has a single root,
// every other node has exactly one parent, and the left-to-right order of
// siblings is significant. Labels are drawn from a finite alphabet Σ.
//
// The package provides construction, traversal, a canonical text codec,
// structural statistics (used by the histogram filters), and the three edit
// operations (relabel, delete, insert) whose minimum-cost sequences define
// the tree edit distance.
package tree

import (
	"fmt"
	"strings"
)

// Node is a node of a rooted, ordered, labeled tree. Children are ordered
// left to right. A Node belongs to at most one tree; sharing nodes between
// trees is not supported.
type Node struct {
	Label    string
	Children []*Node
}

// NewNode returns a node with the given label and children, in order.
func NewNode(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Degree returns the number of children (the fanout) of the node.
func (n *Node) Degree() int { return len(n.Children) }

// Tree is a rooted, ordered, labeled tree. The zero value is an empty tree
// with no nodes; all algorithms in this repository treat the empty tree as a
// valid input of size 0.
type Tree struct {
	Root *Node
}

// New returns a tree rooted at root. root may be nil (the empty tree).
func New(root *Node) *Tree { return &Tree{Root: root} }

// IsEmpty reports whether the tree has no nodes.
func (t *Tree) IsEmpty() bool { return t == nil || t.Root == nil }

// Size returns |T|, the number of nodes in the tree.
func (t *Tree) Size() int {
	size, _ := t.shape()
	return size
}

// Height returns the number of nodes on the longest root-to-leaf path.
// The empty tree has height 0; a single node has height 1.
func (t *Tree) Height() int {
	_, height := t.shape()
	return height
}

// shape returns the node count and the height of the tree in one
// depth-first walk. The walk keeps its own stack of inner nodes, so a
// tree's depth costs heap (and nothing for trees up to 32 deep), not
// goroutine stack.
func (t *Tree) shape() (size, height int) {
	if t.IsEmpty() {
		return 0, 0
	}
	type frame struct {
		n   *Node
		kid int // next child to visit
	}
	var buf [32]frame
	stack := append(buf[:0], frame{n: t.Root})
	size, height = 1, 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.kid == len(f.n.Children) {
			stack = stack[:len(stack)-1]
			continue
		}
		c := f.n.Children[f.kid]
		f.kid++
		size++
		height = max(height, len(stack)+1)
		if len(c.Children) > 0 {
			stack = append(stack, frame{n: c})
		}
	}
	return size, height
}

// Leaves returns the number of leaf nodes in the tree.
func (t *Tree) Leaves() int {
	if t.IsEmpty() {
		return 0
	}
	n := 0
	t.Walk(func(nd *Node) bool {
		if nd.IsLeaf() {
			n++
		}
		return true
	})
	return n
}

// Clone returns a deep copy of the tree. Mutating the copy never affects
// the original.
func (t *Tree) Clone() *Tree {
	if t.IsEmpty() {
		return New(nil)
	}
	return New(cloneNode(t.Root))
}

func cloneNode(n *Node) *Node {
	c := &Node{Label: n.Label}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = cloneNode(ch)
		}
	}
	return c
}

// Equal reports whether two trees are structurally identical: same shape
// and the same label at every corresponding position.
func Equal(a, b *Tree) bool {
	switch {
	case a.IsEmpty() && b.IsEmpty():
		return true
	case a.IsEmpty() || b.IsEmpty():
		return false
	}
	return nodesEqual(a.Root, b.Root)
}

func nodesEqual(a, b *Node) bool {
	if a.Label != b.Label || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !nodesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of the tree: no nil nodes and no
// node reachable through two different paths (which would make the structure
// a DAG or introduce a cycle). It returns a descriptive error on the first
// violation found, naming the offending node by its path of child indexes
// from the root. The walk is iterative and builds that path only for the
// error, so a deep chain costs O(n), not a stack frame and a path string
// per node.
func (t *Tree) Validate() error {
	if t.IsEmpty() {
		return nil
	}
	// The frames on the stack are the path to the node in hand: each one's
	// next child to visit, the last visited one's index one below.
	type frame struct {
		n    *Node
		next int
	}
	seen := map[*Node]bool{t.Root: true}
	stack := []frame{{n: t.Root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next == len(f.n.Children) {
			stack = stack[:len(stack)-1]
			continue
		}
		c := f.n.Children[f.next]
		f.next++
		if c == nil || seen[c] {
			var path strings.Builder
			path.WriteString("root")
			for _, f := range stack {
				fmt.Fprintf(&path, ".%d", f.next-1)
			}
			if c == nil {
				return fmt.Errorf("tree: nil node at %s", path.String())
			}
			return fmt.Errorf("tree: node %q at %s is reachable twice", c.Label, path.String())
		}
		seen[c] = true
		stack = append(stack, frame{n: c})
	}
	return nil
}

// String renders the tree in the canonical text format understood by Parse,
// e.g. "a(b(c,d),e)". See Format for the grammar.
func (t *Tree) String() string {
	if t.IsEmpty() {
		return ""
	}
	var sb strings.Builder
	formatNode(&sb, t.Root)
	return sb.String()
}
