package tree

// Walk visits every node of the tree in preorder (node before its children,
// children left to right). The visitor returns false to prune the walk below
// the current node; the walk still continues with the node's siblings.
func (t *Tree) Walk(visit func(*Node) bool) {
	if t.IsEmpty() {
		return
	}
	walkNode(t.Root, visit)
}

func walkNode(n *Node, visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		walkNode(c, visit)
	}
}

// PreOrder returns the nodes of the tree in preorder.
func (t *Tree) PreOrder() []*Node {
	out := make([]*Node, 0, t.Size())
	t.Walk(func(n *Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// PostOrder returns the nodes of the tree in postorder (children left to
// right, then the node).
func (t *Tree) PostOrder() []*Node {
	out := make([]*Node, 0, t.Size())
	if t.IsEmpty() {
		return out
	}
	var rec func(n *Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		out = append(out, n)
	}
	rec(t.Root)
	return out
}

// Positions holds the 1-based preorder and postorder position of each node,
// in the node order of PreOrder. Proposition 4.1 of the paper shows that in
// any edit-distance mapping with cost < l, mapped nodes' preorder (and
// postorder) positions differ by at most l; the positional binary branch
// filter is built on these numbers.
type Positions struct {
	Nodes []*Node       // preorder node sequence
	Pre   map[*Node]int // 1-based preorder position
	Post  map[*Node]int // 1-based postorder position
}

// Number computes 1-based preorder and postorder positions for every node.
func (t *Tree) Number() *Positions {
	pos := &Positions{
		Pre:  make(map[*Node]int, t.Size()),
		Post: make(map[*Node]int, t.Size()),
	}
	if t.IsEmpty() {
		return pos
	}
	pre, post := 0, 0
	var rec func(n *Node)
	rec = func(n *Node) {
		pre++
		pos.Pre[n] = pre
		pos.Nodes = append(pos.Nodes, n)
		for _, c := range n.Children {
			rec(c)
		}
		post++
		pos.Post[n] = post
	}
	rec(t.Root)
	return pos
}
