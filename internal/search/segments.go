package search

import (
	"sync"
	"time"

	"treesim/internal/branch"
	"treesim/internal/invfile"
	"treesim/internal/segstore"
	"treesim/internal/tree"
)

// The glue between the search layer and the segmented store: what a
// segment payload is, how the memtable grows and freezes, and how
// compaction rebuilds a segment under the index's filter configuration.
//
// Every segment carries its own trees and its own branch space, profiles
// and size column over them; the memtable's grow by one add per insert. A
// seal freezes a prefix of the memtable and builds what a sealed segment
// keeps beside them, the postings; a segment is profiled with the parallel
// build only at compaction, off the write path, and at snapshot load.

// segPayload is what a segment carries: its trees and, unless the index
// scans sequentially, the filter's data over them — the branch space the
// segment's trees are profiled in, their profiles, the size column the size
// tier reads, sizes[i] = profiles[i].Size, and for a sealed segment the
// inverted file (Algorithm 1) its BDist and label tiers sweep. Only the
// bounder tells the two apart: without postings it fills the same columns
// off the profiles. A sealed segment's payload is immutable; the
// memtable's is mutated only under the store's mutation lock, and
// snapshots freeze prefixes of it.
type segPayload struct {
	trees    []*tree.Tree
	space    *branch.Space // nil: the sequential scan
	profiles []*branch.Profile
	post     *invfile.Index
	sizes    []int32
}

// newPayload profiles trees under f in a new branch space of f's level,
// sealing the segment when seal is set.
func newPayload(f *BiBranch, trees []*tree.Tree, seal bool) *segPayload {
	p := &segPayload{trees: trees}
	if f != nil {
		p.space = branch.NewSpace(f.level())
		p.profiles = p.space.ProfileAllParallel(trees, 0)
		p.sizes = make([]int32, len(trees))
		for i, pr := range p.profiles {
			p.sizes[i] = int32(pr.Size)
		}
		if seal {
			p.seal()
		}
	}
	return p
}

// add profiles one more tree into the memtable's space.
func (p *segPayload) add(t *tree.Tree) {
	p.trees = append(p.trees, t)
	if p.space != nil {
		pr := p.space.Profile(t)
		p.profiles, p.sizes = append(p.profiles, pr), append(p.sizes, int32(pr.Size))
	}
}

// prefix freezes the memtable's first n trees. The branch space is shared —
// it is internally synchronized and only ever grows — and the slices are
// capped at n, so later adds never show through. A seal also builds the
// postings: under the store's lock, once per MemtableSize inserts.
func (p *segPayload) prefix(n int, seal bool) *segPayload {
	g := &segPayload{trees: p.trees[:n:n], space: p.space}
	if p.space != nil {
		g.profiles, g.sizes = p.profiles[:n:n], p.sizes[:n:n]
		if seal {
			g.seal()
		}
	}
	return g
}

// seal builds the postings — none for an empty segment, or one too large
// for a posting's tree bits, which the bounder then fills like the
// memtable.
func (p *segPayload) seal() {
	if len(p.profiles) > 0 && len(p.profiles) <= invfile.MaxTrees {
		p.post = invfile.Build(p.profiles)
	}
}

// segHooks builds the store hooks over the index's filter configuration.
func (ix *Index) segHooks() segstore.Hooks {
	return segstore.Hooks{
		NewMem: func(base int) any { return newPayload(ix.filter, nil, false) },
		Snapshot: func(mem any, n int, seal bool) any {
			return mem.(*segPayload).prefix(n, seal)
		},
	}
}

// payloadOf returns a segment's payload.
func payloadOf(sg *segstore.Segment) *segPayload { return sg.Payload.(*segPayload) }

// CompactionStats describes one finished compaction for observability
// hooks.
type CompactionStats struct {
	// Inputs is the number of segments merged.
	Inputs int
	// InputTrees is the entry count across them, tombstoned included.
	InputTrees int
	// Output is the surviving entry count of the merged segment.
	Output int
	// Duration is the wall time of the merge and publish.
	Duration time.Duration
}

// Compact merges every sealed segment (the memtable is untouched) into
// one, profiling the survivors under the configured filter with the
// parallel index build and dropping tombstoned entries. It reports false
// when there was nothing to do or another compaction was in flight. Safe
// to call concurrently with everything else; queries switch to the merged
// segment atomically.
func (ix *Index) Compact() bool {
	var cs CompactionStats
	start := time.Now()
	done := ix.store.Compact(func(segs []*segstore.Segment, tombs *segstore.Tombstones) *segstore.Segment {
		merged := mergeLive(segs, tombs, ix.filter)
		cs.Inputs = len(segs)
		for _, sg := range segs {
			cs.InputTrees += sg.Len()
		}
		if merged != nil {
			cs.Output = merged.N
		}
		return merged
	})
	if done {
		cs.Duration = time.Since(start)
		if fn := ix.onCompaction.Load(); fn != nil {
			(*fn)(cs)
		}
	}
	return done
}

// mergeLive gathers the untombstoned entries of segs, ascending by id, into
// one segment indexed under f; nil when none survive.
func mergeLive(segs []*segstore.Segment, tombs *segstore.Tombstones, f *BiBranch) *segstore.Segment {
	var ids []int
	var trees []*tree.Tree
	for _, sg := range segs {
		p := payloadOf(sg)
		for i := 0; i < sg.Len(); i++ {
			if id := sg.ID(i); !tombs.Has(id) {
				ids = append(ids, id)
				trees = append(trees, p.trees[i])
			}
		}
	}
	if len(ids) == 0 {
		return nil
	}
	return newSegment(ids, trees, f)
}

// newSegment indexes trees under f and wraps them as a sealed segment
// holding ids, ascending (nil: 0, 1, …), in the contiguous form when they
// have no holes. The parallel profile build is the merge kernel.
func newSegment(ids []int, trees []*tree.Tree, f *BiBranch) *segstore.Segment {
	sg := &segstore.Segment{N: len(trees), IDs: ids, Payload: newPayload(f, trees, true)}
	if len(ids) > 0 && ids[len(ids)-1]-ids[0] == len(ids)-1 {
		sg.Base, sg.IDs = ids[0], nil
	}
	return sg
}

// maybeCompact runs a background compaction when the store's advisory
// trigger fires.
func (ix *Index) maybeCompact() {
	if ix.store.ShouldCompact() {
		go ix.Compact()
	}
}

// OnCompaction registers fn to run after every completed compaction (on
// the compacting goroutine). One hook; nil clears it.
func (ix *Index) OnCompaction(fn func(CompactionStats)) {
	if fn == nil {
		ix.onCompaction.Store(nil)
		return
	}
	ix.onCompaction.Store(&fn)
}

// qcut is a query's consistent view of the dataset: the cut's segments
// flattened into one global position domain [0, n), with prefix sums for
// position↔segment mapping. Global positions ascend with dataset ids
// (segments are id-ordered and non-overlapping), so ordering by position
// is ordering by id.
type qcut struct {
	segs   []*segstore.Segment
	tombs  *segstore.Tombstones
	starts []int // starts[i] = global position of segs[i]'s first entry
	n      int   // total entries, tombstoned included
	live   int
}

// cut snapshots the store into a query view.
func (ix *Index) cut() *qcut {
	c := ix.store.Read()
	qc := &qcut{segs: c.Segments, tombs: c.Tombs}
	qc.starts = make([]int, len(c.Segments)+1)
	for i, sg := range c.Segments {
		qc.starts[i+1] = qc.starts[i] + sg.Len()
	}
	qc.n = qc.starts[len(c.Segments)]
	qc.live = qc.n - c.Tombs.Len()
	return qc
}

// segOf returns the index of the segment holding global position pos.
func (qc *qcut) segOf(pos int) int {
	lo, hi := 0, len(qc.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if qc.starts[mid+1] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// locate maps a global position to (segment index, local position,
// dataset id).
func (qc *qcut) locate(pos int) (si, local, gid int) {
	si = qc.segOf(pos)
	local = pos - qc.starts[si]
	return si, local, qc.segs[si].ID(local)
}

// treeOf returns the tree at a segment-local position.
func (qc *qcut) treeOf(si, local int) *tree.Tree {
	return payloadOf(qc.segs[si]).trees[local]
}

// segBounders is a query's per-segment bounder set, nil ones under the
// sequential scan: one query profile per segment, created up front, each
// segment's columns filled into its range of the query's accumulator, and
// the query's label sequences per segment, when a tree of it first reaches
// the sequence tier. The query's filter pass and refine stage read it on
// the query's goroutine: every bounder is read-only but for those
// sequences.
type segBounders []*biBranchBounder

// newSegBounders builds a query's bounders over the cut, each with its
// segment's range of acc; *dead is working memory for a segment's
// tombstoned locals, which only a bounder that fills its columns asks for.
func newSegBounders(qc *qcut, q *tree.Tree, acc []int32, dead *[]int) segBounders {
	sb := make(segBounders, len(qc.segs))
	for si, sg := range qc.segs {
		locals := func() []int {
			*dead = qc.tombs.Locals(sg, 0, sg.Len(), (*dead)[:0])
			return *dead
		}
		sb[si] = payloadOf(sg).bounder(q, acc[2*qc.starts[si]:2*qc.starts[si+1]], locals)
	}
	return sb
}

// accPool recycles the queries' accumulators, two int32s per position of a
// cut (the branch and the label overlaps), and fillPool the memtable fill's
// scratch, so a query's columns allocate nothing in the steady state. A
// query puts its accumulator back when it returns, when no bounder reads it
// any more.
var accPool, fillPool sync.Pool

// getAcc returns an int32 slice of n entries from pool: 2·cut.n for a
// query's accumulator. A new one has room for a few more, so a dataset that
// grows by inserts does not outgrow every pooled one at once.
func getAcc(pool *sync.Pool, n int) *[]int32 {
	if p, ok := pool.Get().(*[]int32); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	acc := make([]int32, n, n+n/8)
	return &acc
}
