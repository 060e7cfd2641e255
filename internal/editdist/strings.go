package editdist

import "treesim/internal/tree"

// SequenceLowerBound implements the lower bound of Guha et al. (SIGMOD
// 2002, reference [15] of the paper): the maximum of the string edit
// distances of the preorder and the postorder label sequences lower-bounds
// the tree edit distance. It costs O(|T1|·|T2|) — asymptotically the same
// as one tree-distance evaluation, which is exactly the scalability problem
// the binary branch embedding avoids; it is included as a baseline. The
// verifier runs the same program banded at its cutoff (bounded.go); here
// the band covers every cell.
func SequenceLowerBound(t1, t2 *tree.Tree) int {
	q := Prepare(t1)
	s := new(scratch)
	b := s.decompose(t2, q)
	seq, _ := q.seqBound(s, b, q.d.n+b.n)
	return seq
}
