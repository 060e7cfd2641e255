// Package invfile implements the inverted file index (IFI) of Algorithm 1
// as a scan structure over a segment's profiles. The vocabulary is the set of
// distinct q-level binary branches of the segment (dimensions interned by
// its branch.Space); the inverted list of each branch records, per tree
// that contains it, the number of occurrences. One term-at-a-time sweep
// over the lists of a query's branches then yields the branch-vector
// overlap — hence BDist = |q| + |t| − 2·overlap — of every tree in the
// segment, without opening the profile of a single tree. A posting is one
// word, its count saturating in four bits with the exact count kept aside,
// so the sweep reads one word a posting: a branch the query carries once,
// as it carries most, adds 1 to each tree on its list, and only a query
// count above the four bits reads the exact counts. Every sealed
// segment of the search index carries one, built when the segment is
// indexed, sealed, compacted or loaded from a snapshot, and its filter's
// BDist and label tiers read the sweep; the memtable, which grows by one
// tree per insert, has none and fills the same overlaps off its profiles.
//
// Beside the branch lists sit label lists, for the label-histogram bound
// of Kailing et al. (the paper's Histo baseline): one edit operation
// changes the L1 distance of two label histograms by at most 2, so
// ⌈(|q| + |t| − 2·overlap)/2⌉ lower-bounds the edit distance. Every node
// roots exactly one branch (Definition 2), so a tree's label histogram is
// its profile summed by each dimension's root label, and a label's list is
// the branch lists of its dimensions merged by tree: no tree is walked,
// and a label that roots a single branch shares that branch's list. Each
// label keeps the shorter of its list and its complement: a label carried
// by more than half of the segment's trees lists the trees that lack it,
// and the sweep credits every other tree with the query's full count of
// it — an upper bound on min(q_l, t_l), exact when the query carries the
// label once, so the bound stays sound. On data with a few labels that
// nearly every tree carries, the lists then hold a handful of entries
// instead of about one per tree per label. Beside its list a dense label
// keeps a count column, one byte per tree saturating at 255, filled from
// the carriers its list was derived from: for a query that carries the
// label twice or more, Excess reads it for the few trees a caller asks
// about and takes back what the sweep over-credited them, which makes the
// overlap exact for every query label carried at most 255 times.
//
// The occurrence positions of Algorithm 1's extended lists stay with the
// per-tree profiles (branch.Profile): the positional bound is only ever
// computed pairwise, for the few trees the BDist tier leaves standing, so
// it wants them grouped by tree, not by branch.
package invfile

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"treesim/internal/branch"
)

// A posting is one uint32: the tree's segment-local position in the high
// bits and its occurrence count in the low countBits, saturating at
// countMask, which stands for countMask or more. The exact counts of the
// saturated postings sit beside the lists, in a side array; in practice
// counts stay far below countMask (a branch repeats only across identical
// sibling subtrees), so a sweep reads one word a posting and tests nothing
// more, and the side arrays are empty.
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
	// labels[l] locates label l's list (see labelList); lposts holds the
	// lists that are not some branch's list.
	labels []labelList
	lposts []uint32
	// sats and lsats are the side arrays of posts and lposts: the exact
	// count of every posting whose word reads countMask, by the word's
	// position, ascending.
	sats, lsats []sat
	// cols holds the dense labels' count columns back to back, trees
	// bytes each: a tree's count of the label, 255 standing for 255 or
	// more, 0 for a tree that lacks it.
	cols []uint8
}

// sat is a saturated posting: its word's position in posts or lposts and
// its exact count.
type sat struct{ at, c uint32 }

// labelList locates one label's list: posts[from:to] when the label roots
// one branch and keeps that branch's list as its own, else
// lposts[from:to]. A dense label, carried by more than half of the trees,
// lists the trees that lack it as bare positions, local<<countBits, and
// keeps its counts by tree in cols[col:col+trees]; any other label lists
// its carriers with their counts, as a branch list does.
type labelList struct {
	from, to, col uint32
	kind          uint8
}

// The kinds of label list.
const (
	shared uint8 = iota // a branch's list, in posts
	exact               // carriers and counts, in lposts
	dense               // the trees that lack the label, in lposts
)

// Build constructs the inverted file over a segment's profiles (position i
// of the slice is tree i), all from one space, by a counting sort over their
// Σ nnz coordinates: one pass sizes the lists, one fills them and notes the
// saturated postings. Visiting the trees in order leaves every list sorted
// by tree. The label lists are derived from the branch lists (buildLabels).
// It panics past MaxTrees profiles.
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
		for _, d := range p.Dims() {
			x.start[d+1]++
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
			c := uint32(p.Count(i))
			x.posts[next[d]] = word(uint32(t), c)
			if c >= countMask {
				x.sats = append(x.sats, sat{next[d], c})
			}
			next[d]++
		}
	}
	slices.SortFunc(x.sats, func(a, b sat) int { return cmp.Compare(a.at, b.at) })
	x.buildLabels(ps)
	return x
}

// word is the posting of tree t with count c.
func word(t, c uint32) uint32 { return t<<countBits | min(c, countMask) }

// buildLabels derives the label lists from the branch lists, grouped by
// each dimension's root label: a label rooting one branch shares that
// branch's list, and the lists of a label rooting several branches merge
// by tree, their counts adding up. A label whose list would hold more than
// half of the trees keeps its complement instead, and a count column.
func (x *Index) buildLabels(ps []*branch.Profile) {
	if len(ps) == 0 {
		return
	}
	root, labels := ps[0].Space().Roots()
	vocab := len(x.start) - 1
	// dims holds the dimensions grouped by root label, label l's from
	// end[l−1] (0 for l = 0) up to end[l].
	end := make([]uint32, labels+1)
	for _, l := range root[:vocab] {
		end[l+1]++
	}
	for l := 0; l < labels; l++ {
		end[l+1] += end[l]
	}
	dims := make([]branch.Dim, vocab)
	for d, l := range root[:vocab] {
		dims[end[l]] = branch.Dim(d)
		end[l]++
	}
	x.labels = make([]labelList, labels)
	var m merger
	from := uint32(0)
	for l := range x.labels {
		ds := dims[from:end[l]]
		from = end[l]
		ll := &x.labels[l]
		ll.from = uint32(len(x.lposts))
		switch {
		case len(ds) == 0:
			ll.kind = exact
		case len(ds) > 1:
			ll.kind = m.merge(x, ds)
		case 2*len(x.dimList(ds[0])) > x.trees:
			ll.kind = dense
			x.lposts = lacking(x.lposts, x.dimList(ds[0]), x.trees)
			col := x.column()
			each(x.dimList(ds[0]), x.dimSats(ds[0]), func(t, c uint32) { col[t] = saturate(c) })
		default:
			ll.kind, ll.from = shared, x.start[ds[0]]
			ll.to = x.start[ds[0]+1]
			continue
		}
		ll.to = uint32(len(x.lposts))
		if ll.kind == dense {
			ll.col = uint32(len(x.cols) - x.trees)
		}
	}
	if cap(x.lposts)-len(x.lposts) > len(x.lposts)/32 {
		x.lposts = slices.Clone(x.lposts)
	}
	if cap(x.cols) > len(x.cols) {
		x.cols = slices.Clone(x.cols)
	}
}

// column appends a zeroed count column to x.cols and returns it.
func (x *Index) column() []uint8 {
	x.cols = append(x.cols, make([]uint8, x.trees)...)
	return x.cols[len(x.cols)-x.trees:]
}

// saturate is count c as a count column holds it.
func saturate(c uint32) uint8 { return uint8(min(c, 255)) }

// dimList returns the branch list of dimension d.
func (x *Index) dimList(d branch.Dim) []uint32 { return x.posts[x.start[d]:x.start[d+1]] }

// dimSats returns the saturated postings of dimension d's list.
func (x *Index) dimSats(d branch.Dim) []sat { return satsIn(x.sats, x.start[d], x.start[d+1]) }

// satsIn returns the entries of the side array sats for the words at
// positions from to to: a list's saturated postings.
func satsIn(sats []sat, from, to uint32) []sat {
	i := sort.Search(len(sats), func(i int) bool { return sats[i].at >= from })
	j := i
	for j < len(sats) && sats[j].at < to {
		j++
	}
	return sats[i:j]
}

// merger merges the branch lists of a label that roots several branches
// into x.lposts, reusing its buffers from label to label.
type merger struct {
	pairs []uint64 // tree<<32 | count, for a short merge
	sum   []uint32 // count by tree, for a long merge; zero between labels
}

// merge appends the list of the label whose dimensions are ds to x.lposts
// and returns its kind. Short lists merge from sorted pairs; lists holding
// a quarter as many postings as there are trees or more merge through a
// per-tree array of counts, whose scan then costs less than the sort. A
// short merge is always exact: its label has fewer carriers than postings,
// so fewer than half of the trees carry it.
func (m *merger) merge(x *Index, ds []branch.Dim) (kind uint8) {
	total := 0
	for _, d := range ds {
		total += len(x.dimList(d))
	}
	if 4*total >= x.trees {
		return m.long(x, ds)
	}
	m.pairs = m.pairs[:0]
	for _, d := range ds {
		each(x.dimList(d), x.dimSats(d), func(t, c uint32) {
			m.pairs = append(m.pairs, uint64(t)<<32|uint64(c))
		})
	}
	slices.Sort(m.pairs)
	for i := 0; i < len(m.pairs); {
		t, c := uint32(m.pairs[i]>>32), uint32(0)
		for ; i < len(m.pairs) && uint32(m.pairs[i]>>32) == t; i++ {
			c += uint32(m.pairs[i])
		}
		x.appendPosting(t, c)
	}
	return exact
}

// long is merge for long lists.
func (m *merger) long(x *Index, ds []branch.Dim) (kind uint8) {
	if m.sum == nil {
		m.sum = make([]uint32, x.trees)
	}
	for _, d := range ds {
		each(x.dimList(d), x.dimSats(d), func(t, c uint32) { m.sum[t] += c })
	}
	carriers := 0
	for _, c := range m.sum {
		if c > 0 {
			carriers++
		}
	}
	kind = exact
	var col []uint8
	if 2*carriers > x.trees {
		kind, col = dense, x.column()
	}
	for t, c := range m.sum {
		switch {
		case kind == dense:
			if c == 0 {
				x.lposts = append(x.lposts, uint32(t)<<countBits)
			}
			col[t] = saturate(c)
		case c > 0:
			x.appendPosting(uint32(t), c)
		}
		m.sum[t] = 0
	}
	return kind
}

// lacking appends to dst, as bare positions, the trees among the first n
// that have no posting in list.
func lacking(dst, list []uint32, n int) []uint32 {
	next := uint32(0)
	for _, e := range list {
		for t := e >> countBits; next < t; next++ {
			dst = append(dst, next<<countBits)
		}
		next++
	}
	for ; int(next) < n; next++ {
		dst = append(dst, next<<countBits)
	}
	return dst
}

// each calls fn with the tree and exact count of every posting of list,
// reading the counts of its saturated postings, sats, in step.
func each(list []uint32, sats []sat, fn func(t, c uint32)) {
	for _, e := range list {
		c := e & countMask
		if c == countMask {
			c, sats = sats[0].c, sats[1:]
		}
		fn(e>>countBits, c)
	}
}

// appendPosting appends tree t with count c to the exact label list
// being built at the end of lposts.
func (x *Index) appendPosting(t, c uint32) {
	if c >= countMask {
		x.lsats = append(x.lsats, sat{uint32(len(x.lposts)), c})
	}
	x.lposts = append(x.lposts, word(t, c))
}

// sweep adds min(qc, c) to acc[t] for every posting (t, c) of the list
// words[from:to], whose side array is sats. A count stored in a word is
// exact below countMask and at most the true count at it, so for
// qc ≤ countMask the word alone gives min(qc, c); only a larger qc reads
// sats.
func sweep(acc []int32, words []uint32, from, to uint32, sats []sat, qc uint32) {
	list := words[from:to]
	switch {
	case qc == 1:
		// Four postings an iteration: the loop's own overhead is a
		// sizable share of a bare increment.
		for len(list) >= 4 {
			acc[list[0]>>countBits]++
			acc[list[1]>>countBits]++
			acc[list[2]>>countBits]++
			acc[list[3]>>countBits]++
			list = list[4:]
		}
		for _, e := range list {
			acc[e>>countBits]++
		}
	case qc <= countMask:
		for _, e := range list {
			acc[e>>countBits] += int32(min(qc, e&countMask))
		}
	default:
		// Every word's count is at most countMask < qc: credit it, then
		// raise each saturated posting from countMask to min(qc, c).
		for _, e := range list {
			acc[e>>countBits] += int32(e & countMask)
		}
		for _, s := range satsIn(sats, from, to) {
			acc[words[s.at]>>countBits] += int32(min(qc, s.c) - countMask)
		}
	}
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
		sweep(ov, x.posts, x.start[d], x.start[d+1], x.sats, uint32(q.Count(i)))
	}
}

// LabelOverlaps bounds, for every indexed tree t, the overlap
// Σ_l min(q[l], t[l]) of its label histogram with the query's, ql (from
// branch.Space.QueryLabels over the indexed profiles' space, ascending by
// label), by base + lov[t], from one sweep over the lists of the query's
// labels. An exact list adds min(q[l], t[l]) to each carrier. A dense
// label adds q[l] to base, and its list takes q[l] back from each tree that
// lacks the label, so every carrier is credited q[l] ≥ min(q[l], t[l]).
// Keeping offsets from base spares the sweep a pass over every tree per
// dense label; lov must have an entry per indexed tree.
func (x *Index) LabelOverlaps(ql []branch.LabelCount, lov []int32) (base int32) {
	lov = lov[:x.trees]
	clear(lov)
	for _, lc := range ql {
		if int(lc.Label) >= len(x.labels) {
			break // labels ascend: no later one has a list either
		}
		qc, ll := uint32(lc.Count), x.labels[lc.Label]
		if ll.kind == dense {
			base += int32(qc)
			for _, e := range x.lposts[ll.from:ll.to] {
				lov[e>>countBits] -= int32(qc)
			}
			continue
		}
		if ll.kind == shared {
			sweep(lov, x.posts, ll.from, ll.to, x.sats, qc)
		} else {
			sweep(lov, x.lposts, ll.from, ll.to, x.lsats, qc)
		}
	}
	return base
}

// A DenseCount is a dense label that a query carries 2 to 255 times: the
// query's count and where the label's count column starts. It is the
// only kind of query label whose swept credit can exceed min(q_l, t_l).
type DenseCount struct {
	col uint32
	q   uint8
}

// DenseCounts appends to dst the labels of ql (as LabelOverlaps takes it)
// that are dense here and that the query carries 2 to 255 times. A label
// carried once is credited exactly by the sweep; one carried more than 255
// times cannot be told apart by a saturated column and keeps its credit,
// an over-credit and so still sound.
func (x *Index) DenseCounts(ql []branch.LabelCount, dst []DenseCount) []DenseCount {
	for _, lc := range ql {
		if int(lc.Label) >= len(x.labels) {
			break
		}
		if ll := x.labels[lc.Label]; ll.kind == dense && lc.Count >= 2 && lc.Count <= 255 {
			dst = append(dst, DenseCount{col: ll.col, q: uint8(lc.Count)})
		}
	}
	return dst
}

// Excess returns how much LabelOverlaps over-credited tree t on the dense
// labels ds (from DenseCounts for the same query): Σ q_l − t_l over the
// labels whose column reads 1 ≤ t_l < q_l. A column reading 0 is a tree
// the label's list already debited, and one reading q_l or more — 255
// included, which stands for at least 255 ≥ q_l — was credited exactly.
// base + lov[t] − Excess is then the exact overlap Σ_l min(q_l, t_l)
// whenever the query carries no label more than 255 times.
func (x *Index) Excess(ds []DenseCount, t int) (ex int32) {
	for _, d := range ds {
		if c := x.cols[int(d.col)+t]; c != 0 && c < d.q {
			ex += int32(d.q - c)
		}
	}
	return ex
}
