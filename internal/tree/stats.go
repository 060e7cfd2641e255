package tree

// Structural statistics used by the histogram filters of Kailing et al.
// (Section 2.2 / Section 5) and by the experiment harness.

// LabelCounts returns the number of occurrences of every label in the tree.
func (t *Tree) LabelCounts() map[string]int {
	m := make(map[string]int)
	t.Walk(func(n *Node) bool {
		m[n.Label]++
		return true
	})
	return m
}

// DegreeCounts returns, for every fanout value d that occurs, the number of
// nodes with exactly d children.
func (t *Tree) DegreeCounts() map[int]int {
	m := make(map[int]int)
	t.Walk(func(n *Node) bool {
		m[len(n.Children)]++
		return true
	})
	return m
}

// HeightCounts returns, for every node height h that occurs, the number of
// nodes whose subtree has height h. A leaf has height 1.
func (t *Tree) HeightCounts() map[int]int {
	m := make(map[int]int)
	if t.IsEmpty() {
		return m
	}
	var rec func(n *Node) int
	rec = func(n *Node) int {
		h := 0
		for _, c := range n.Children {
			if ch := rec(c); ch > h {
				h = ch
			}
		}
		h++
		m[h]++
		return h
	}
	rec(t.Root)
	return m
}
