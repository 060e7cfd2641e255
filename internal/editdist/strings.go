package editdist

import "treesim/internal/tree"

// StringDistance returns the unit-cost Levenshtein edit distance between
// two label sequences, in O(|a|·|b|) time and O(min) space.
func StringDistance(a, b []string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter sequence; one rolling row of length |b|+1.
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, sub)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// preLabels returns the node labels of t in preorder.
func preLabels(t *tree.Tree) []string {
	out := make([]string, 0, t.Size())
	t.Walk(func(n *tree.Node) bool {
		out = append(out, n.Label)
		return true
	})
	return out
}

// postLabels returns the node labels of t in postorder.
func postLabels(t *tree.Tree) []string {
	nodes := t.PostOrder()
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Label
	}
	return out
}

// SequenceLowerBound implements the lower bound of Guha et al. (SIGMOD
// 2002, reference [15] of the paper): the maximum of the string edit
// distances of the preorder and the postorder label sequences lower-bounds
// the tree edit distance. It costs O(|T1|·|T2|) — asymptotically the same
// as one tree-distance evaluation, which is exactly the scalability problem
// the binary branch embedding avoids; it is included as a baseline.
func SequenceLowerBound(t1, t2 *tree.Tree) int {
	pre := StringDistance(preLabels(t1), preLabels(t2))
	post := StringDistance(postLabels(t1), postLabels(t2))
	if post > pre {
		return post
	}
	return pre
}
