package search

import (
	"time"

	"treesim/internal/obs"
	"treesim/internal/segstore"
	"treesim/internal/tree"
)

// The glue between the search layer and the segmented store: what a
// segment payload is, how the memtable grows and freezes, and how
// compaction rebuilds the index's configured filter per segment.
//
// Every sealed segment carries its own trees and its own fully-built
// filter over them. The memtable instead carries an appendable filter
// (the configured one when it supports Append, a plain BiBranch of the
// same level for the pivot/VP cascades, the sequential scan as the
// sound fallback) — so an insert is one profile append, and the
// expensive global preprocessing of pivot tables and VP-trees happens
// only at compaction, off the write path. Bounds from differently-built
// filters are all sound lower bounds, so mixing them across segments
// never costs exactness, only a little filter power until the next
// compaction.

// segPayload is the payload of a sealed (immutable) segment.
type segPayload struct {
	trees  []*tree.Tree
	filter Filter
}

// memPayload is the payload of the mutable memtable. It is mutated only
// under the store's mutation lock; snapshots freeze prefix slices of it.
type memPayload struct {
	trees  []*tree.Tree
	filter Filter // always an Appender and a snapshotter
}

// memFilterFor picks the memtable filter for a configured prototype.
func memFilterFor(proto Filter) Filter {
	switch p := proto.(type) {
	case *PivotBiBranch:
		return &BiBranch{Q: p.Q, Positional: p.Positional}
	case *VPBiBranch:
		return &BiBranch{Q: p.Q, Positional: p.Positional}
	}
	if fr, ok := proto.(Fresher); ok {
		nf := fr.Fresh()
		_, appends := nf.(Appender)
		_, snaps := nf.(snapshotter)
		if appends && snaps {
			return nf
		}
	}
	// A filter we cannot append into or freeze: the memtable degrades to
	// the unfiltered scan (bound 0 is always sound); compaction restores
	// full filtering.
	return NewNone()
}

// segHooks builds the store hooks over the index's filter configuration.
func (ix *Index) segHooks() segstore.Hooks {
	return segstore.Hooks{
		NewMem: func(base int) any {
			f := memFilterFor(ix.filter)
			f.Index(nil)
			return &memPayload{filter: f}
		},
		Snapshot: func(mem any, n int) any {
			m := mem.(*memPayload)
			return &segPayload{
				trees:  m.trees[:n:n],
				filter: m.filter.(snapshotter).snapshotAt(n),
			}
		},
	}
}

// payloadOf returns a segment's payload (sealed segments and memtable
// snapshots both carry *segPayload).
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
// when there was nothing to do, another compaction was in flight, or the
// filter cannot be rebuilt (no Fresher). Safe to call concurrently with
// everything else; queries switch to the merged segment atomically.
func (ix *Index) Compact() bool {
	fr, ok := ix.filter.(Fresher)
	if !ok {
		return false
	}
	var cs CompactionStats
	start := time.Now()
	done := ix.store.Compact(func(segs []*segstore.Segment, tombs *segstore.Tombstones) *segstore.Segment {
		var ids []int
		var trees []*tree.Tree
		for _, sg := range segs {
			p := payloadOf(sg)
			cs.InputTrees += sg.Len()
			for i := 0; i < sg.Len(); i++ {
				if id := sg.ID(i); !tombs.Has(id) {
					ids = append(ids, id)
					trees = append(trees, p.trees[i])
				}
			}
		}
		cs.Inputs = len(segs)
		cs.Output = len(ids)
		if len(ids) == 0 {
			return nil
		}
		nf := fr.Fresh()
		nf.Index(trees) // the parallel build is the merge kernel
		out := &segstore.Segment{N: len(ids), IDs: ids, Payload: &segPayload{trees: trees, filter: nf}}
		if ids[len(ids)-1]-ids[0] == len(ids)-1 {
			// No holes: the compact contiguous representation.
			out.Base, out.IDs = ids[0], nil
		}
		return out
	})
	if done {
		cs.Duration = time.Since(start)
		if fn := ix.onCompaction.Load(); fn != nil {
			(*fn)(cs)
		}
	}
	return done
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

// segBounders is a query's per-segment bounder set: one query profile per
// segment.
type segBounders struct {
	qc *qcut
	q  *tree.Tree
	bs []Bounder
}

// newSegBounders creates every segment's bounder up front, after which the
// set is safe to share read-only across goroutines — except for bounders
// that keep per-query counters, see forShard.
func newSegBounders(qc *qcut, q *tree.Tree) *segBounders {
	sb := &segBounders{qc: qc, q: q, bs: make([]Bounder, len(qc.segs))}
	for si := range sb.bs {
		sb.at(si)
	}
	return sb
}

// at returns the bounder for segment si, creating it on first use.
func (sb *segBounders) at(si int) Bounder {
	if sb.bs[si] == nil {
		sb.bs[si] = payloadOf(sb.qc.segs[si]).filter.Query(sb.q)
	}
	return sb.bs[si]
}

// forShard returns the set filter shard s computes range bounds with.
// Read-only bounders are shared by every shard; a bounder that counts as
// it bounds (an AttrReporter: the pivot screen, the VP-tree walk) is
// private to a shard beyond the first, created when the shard first
// touches its segment, so the counters never race.
func (sb *segBounders) forShard(s int) *segBounders {
	if s == 0 {
		return sb
	}
	var own *segBounders
	for si, b := range sb.bs {
		if _, counts := b.(AttrReporter); counts {
			if own == nil {
				own = &segBounders{qc: sb.qc, q: sb.q, bs: append([]Bounder(nil), sb.bs...)}
			}
			own.bs[si] = nil
		}
	}
	if own == nil {
		return sb
	}
	return own
}

// report forwards per-query filter counters of every materialized bounder
// to the span that timed the pass. With several segments of the same
// filter family the last report per key wins — the span is diagnostic,
// not an aggregate.
func (sb *segBounders) report(sp *obs.Span) {
	for _, b := range sb.bs {
		if ar, ok := b.(AttrReporter); ok {
			ar.ReportAttrs(sp)
		}
	}
}
