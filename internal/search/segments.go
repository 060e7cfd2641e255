package search

import (
	"sync"
	"time"

	"treesim/internal/segstore"
	"treesim/internal/tree"
)

// The glue between the search layer and the segmented store: what a
// segment payload is, how the memtable grows and freezes, and how
// compaction rebuilds the index's configured filter per segment.
//
// Every sealed segment carries its own trees and its own filter over
// them; the memtable carries a fresh filter of the configured family that
// grows by one Append per insert. A seal freezes the memtable's filter
// and builds what a sealed segment keeps (BiBranch's postings); a
// segment's filter is built with the parallel index build only at
// compaction, off the write path, and at snapshot load.

// segPayload is what a segment carries: its trees and the filter over
// them. A sealed segment's payload is immutable; the memtable's is mutated
// only under the store's mutation lock, and snapshots freeze prefix slices
// of it.
type segPayload struct {
	trees  []*tree.Tree
	filter *BiBranch
}

// segHooks builds the store hooks over the index's filter configuration.
func (ix *Index) segHooks() segstore.Hooks {
	return segstore.Hooks{
		NewMem: func(base int) any {
			f := ix.filter.Fresh()
			f.Index(nil)
			return &segPayload{filter: f}
		},
		Snapshot: func(mem any, n int, seal bool) any {
			m := mem.(*segPayload)
			return &segPayload{
				trees:  m.trees[:n:n],
				filter: m.filter.snapshotAt(n, seal),
			}
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
// one, rebuilding the configured filter over the survivors with the
// parallel index build and dropping tombstoned entries. It reports false
// when there was nothing to do or another compaction was in flight. Safe
// to call concurrently with everything else; queries switch to the merged
// segment atomically.
func (ix *Index) Compact() bool {
	var cs CompactionStats
	start := time.Now()
	done := ix.store.Compact(func(segs []*segstore.Segment, tombs *segstore.Tombstones) *segstore.Segment {
		merged := mergeLive(segs, tombs, ix.filter.Fresh())
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
// one segment over which it indexes f; nil when none survive.
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

// newSegment indexes f over trees and wraps them as a sealed segment
// holding ids, ascending (nil: 0, 1, …), in the contiguous form when they
// have no holes. The parallel filter build is the merge kernel.
func newSegment(ids []int, trees []*tree.Tree, f *BiBranch) *segstore.Segment {
	f.Index(trees)
	sg := &segstore.Segment{N: len(trees), IDs: ids, Payload: &segPayload{trees: trees, filter: f}}
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
// segment's postings swept into its range of the query's accumulator, and
// the query's label sequences once per branch space, when a tree first
// reaches the sequence tier. The query's filter pass and refine stage read
// it on the query's goroutine: every bounder is read-only but for those
// sequences.
type segBounders []*biBranchBounder

func newSegBounders(qc *qcut, q *tree.Tree, acc []int32) segBounders {
	sb := make(segBounders, len(qc.segs))
	for si, sg := range qc.segs {
		b := payloadOf(sg).filter.Query(q, acc[2*qc.starts[si]:2*qc.starts[si+1]])
		sb[si] = b
		if b == nil || b.seq == nil {
			continue
		}
		// Segments over one branch space share the query's side of the
		// sequence tier, so it is computed once per space.
		for _, o := range sb[:si] {
			if o.seq != nil && o.f.space == b.f.space {
				b.seq = o.seq
				break
			}
		}
	}
	return sb
}

// accPool recycles the queries' accumulators, two int32s per position of a
// cut (the branch and the label sweep), so a sweep allocates nothing in the
// steady state. A query puts its accumulator back when it returns, when no
// bounder reads it any more.
var accPool sync.Pool

// getAcc returns an accumulator of n entries: 2·cut.n for a query. A new
// one has room for a few more, so a dataset that grows by inserts does not
// outgrow every pooled one at once.
func getAcc(n int) *[]int32 {
	if p, ok := accPool.Get().(*[]int32); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	acc := make([]int32, n, n+n/8)
	return &acc
}
