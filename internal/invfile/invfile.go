// Package invfile implements the inverted file index (IFI) of Algorithm 1
// as a scan structure over a segment's profiles. The vocabulary is the set of
// distinct q-level binary branches of the segment (dimensions interned by
// its branch.Space); the inverted list of each branch records, per tree
// that contains it, the number of occurrences. One term-at-a-time sweep
// over the lists of a query's branches then yields the branch-vector
// overlap — hence BDist = |q| + |t| − 2·overlap — of every tree in the
// segment, without opening the profile of a single tree. The search
// filter does not build one yet — its BDist tier merge-joins per tree, and
// a range query's join stops once Factor·τ is out of reach — so today the
// package is exercised by its tests, FuzzBoundCascade and the
// postings-vs-merge-join ablation benchmark (ROADMAP open item 2). What
// the sweep would still buy: k-NN's cheap pass, which has no threshold
// and so joins every tree in full, and on a range query about 15 ns/tree
// for the sweep against about 75 for the early-exit filter stage.
//
// The occurrence positions of Algorithm 1's extended lists stay with the
// per-tree profiles (branch.Profile): the positional bound is only ever
// computed pairwise, for the few trees the BDist tier leaves standing, so
// it wants them grouped by tree, not by branch.
package invfile

import "treesim/internal/branch"

// Posting is one entry of an inverted list: how often the list's branch
// occurs in one tree of the segment.
type Posting struct {
	Tree  uint32 // segment-local position of the tree
	Count uint32
}

// Index is the populated inverted file, in compressed sparse row layout:
// the lists of all dimensions back to back in one array, each in ascending
// tree order.
type Index struct {
	// sizes[t] is |T| of tree t, what a BDist accumulator starts from.
	sizes []int32
	// start[d] is where dimension d's list begins in posts; the final
	// entry is the total, so list d is posts[start[d]:start[d+1]].
	start []uint32
	posts []Posting
}

// Build constructs the inverted file over a segment's profiles (position i
// of the slice is tree i) by a counting sort over their Σ nnz coordinates:
// one pass sizes the lists, one fills them. Visiting the trees in order
// leaves every list sorted by tree.
func Build(ps []*branch.Profile) *Index {
	vocab, nnz := 0, 0
	for _, p := range ps {
		if ds := p.Dims(); len(ds) > 0 {
			vocab = max(vocab, int(ds[len(ds)-1])+1)
			nnz += len(ds)
		}
	}
	x := &Index{sizes: make([]int32, len(ps)), start: make([]uint32, vocab+1), posts: make([]Posting, nnz)}
	for t, p := range ps {
		x.sizes[t] = int32(p.Size)
		for _, d := range p.Dims() {
			x.start[d+1]++
		}
	}
	for d := 0; d < vocab; d++ {
		x.start[d+1] += x.start[d]
	}
	// next[d] walks from start[d] to start[d+1] as the list fills.
	next := make([]uint32, vocab)
	copy(next, x.start)
	for t, p := range ps {
		for i, d := range p.Dims() {
			x.posts[next[d]] = Posting{Tree: uint32(t), Count: uint32(p.Count(i))}
			next[d]++
		}
	}
	return x
}

// Trees returns the number of indexed trees.
func (x *Index) Trees() int { return len(x.sizes) }

// PostingList returns the inverted list of dimension d in ascending tree
// order (empty for a dimension no indexed tree contains). The slice is
// shared; do not modify.
func (x *Index) PostingList(d branch.Dim) []Posting {
	if int(d)+1 >= len(x.start) {
		return nil
	}
	return x.posts[x.start[d]:x.start[d+1]]
}

// BDists returns the binary branch distance of every indexed tree to the
// query: each tree's accumulator starts at |q| + |t| and one sweep over the
// inverted lists of the query's dimensions takes off twice the multiset
// intersection Σ_d min(q[d], t[d]). The cost is the total length of those
// lists plus one pass over the sizes, not the size of the segment's
// profiles. q must come from the space the indexed profiles were built in.
func (x *Index) BDists(q *branch.Profile) []int32 {
	acc := make([]int32, len(x.sizes))
	for t, size := range x.sizes {
		acc[t] = int32(q.Size) + size
	}
	for i, d := range q.Dims() {
		qc := uint32(q.Count(i))
		for _, p := range x.PostingList(d) {
			acc[p.Tree] -= 2 * int32(min(qc, p.Count))
		}
	}
	return acc
}
