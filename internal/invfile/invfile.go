// Package invfile implements the inverted file index (IFI) of Algorithm 1
// as a scan structure over a segment's profiles. The vocabulary is the set of
// distinct q-level binary branches of the segment (dimensions interned by
// its branch.Space); the inverted list of each branch records, per tree
// that contains it, the number of occurrences. One term-at-a-time sweep
// over the lists of a query's branches then yields the branch-vector
// overlap — hence BDist = |q| + |t| − 2·overlap — of every tree in the
// segment, without opening the profile of a single tree. Every sealed
// segment of the search index carries one, built when the segment is
// indexed, sealed, compacted or decoded from a snapshot, and its filter's
// BDist tier reads the sweep; only the memtable, which grows by one tree
// per insert, merge-joins per tree.
//
// The occurrence positions of Algorithm 1's extended lists stay with the
// per-tree profiles (branch.Profile): the positional bound is only ever
// computed pairwise, for the few trees the BDist tier leaves standing, so
// it wants them grouped by tree, not by branch.
package invfile

import (
	"fmt"

	"treesim/internal/branch"
)

// A posting is one uint32: the tree's segment-local position in the high
// bits and its occurrence count in the low countBits. A count too large
// for them is stored as an escape — count bits zero — followed by one
// entry holding the whole count. No posting has count zero, so the escape
// is unambiguous; in practice counts stay far below the limit (a branch
// repeats only across identical sibling subtrees), so a posting is 4 bytes.
const (
	countBits = 4
	countMask = 1<<countBits - 1
)

// MaxTrees is the most trees one index can hold: a posting keeps
// 32 − countBits bits for the tree's position.
const MaxTrees = 1 << (32 - countBits)

// Index is the populated inverted file, in compressed sparse row layout:
// the lists of all dimensions back to back in one array, each in ascending
// tree order.
type Index struct {
	trees int
	// start[d] is where dimension d's list begins in posts; the final
	// entry is the total, so list d is posts[start[d]:start[d+1]].
	start []uint32
	posts []uint32
}

// Build constructs the inverted file over a segment's profiles (position i
// of the slice is tree i) by a counting sort over their Σ nnz coordinates:
// one pass sizes the lists, one fills them. Visiting the trees in order
// leaves every list sorted by tree. It panics past MaxTrees profiles.
func Build(ps []*branch.Profile) *Index {
	if len(ps) > MaxTrees {
		panic(fmt.Sprintf("invfile: %d trees, at most %d fit one index", len(ps), MaxTrees))
	}
	vocab := 0
	for _, p := range ps {
		if ds := p.Dims(); len(ds) > 0 {
			vocab = max(vocab, int(ds[len(ds)-1])+1)
		}
	}
	x := &Index{trees: len(ps), start: make([]uint32, vocab+1)}
	for _, p := range ps {
		for i, d := range p.Dims() {
			x.start[d+1] += entries(p.Count(i))
		}
	}
	for d := 0; d < vocab; d++ {
		x.start[d+1] += x.start[d]
	}
	x.posts = make([]uint32, x.start[vocab])
	// next[d] walks from start[d] to start[d+1] as the list fills.
	next := make([]uint32, vocab)
	copy(next, x.start)
	for t, p := range ps {
		for i, d := range p.Dims() {
			c, at := uint32(p.Count(i)), next[d]
			if c <= countMask {
				x.posts[at] = uint32(t)<<countBits | c
			} else {
				x.posts[at], x.posts[at+1] = uint32(t)<<countBits, c
			}
			next[d] += entries(int(c))
		}
	}
	return x
}

// entries is how many uint32s a posting of count c takes.
func entries(c int) uint32 {
	if c <= countMask {
		return 1
	}
	return 2
}

// Overlaps sets ov[t], for every indexed tree t, to the multiset
// intersection Σ_d min(q[d], t[d]) of its branch vector with the query's,
// from one sweep over the inverted lists of the query's dimensions; then
// BDist(q, t) = |q| + |t| − 2·ov[t]. The cost is the total length of those
// lists plus clearing ov, not the size of the segment's profiles. ov must
// have an entry per indexed tree; q must come from the space the indexed
// profiles were built in.
func (x *Index) Overlaps(q *branch.Profile, ov []int32) {
	ov = ov[:x.trees]
	clear(ov)
	for i, d := range q.Dims() {
		if int(d) >= len(x.start)-1 {
			break // dimensions ascend: no later one has a list either
		}
		qc := uint32(q.Count(i))
		list := x.posts[x.start[d]:x.start[d+1]]
		for k := 0; k < len(list); k++ {
			e := list[k]
			c := e & countMask
			if c == 0 {
				k++
				c = list[k]
			}
			ov[e>>countBits] += int32(min(qc, c))
		}
	}
}
