package search

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treesim/internal/editdist"
	"treesim/internal/obs"
	"treesim/internal/segstore"
	"treesim/internal/tree"
)

// The sharded parallel execution engine over the segmented store. A query
// starts by taking a consistent cut of the store — the sealed segments
// plus a frozen memtable snapshot — and flattens them into one global
// position domain [0, n); positions ascend with dataset ids. The filter
// stage partitions that domain into S contiguous shards (S = WithShards,
// default GOMAXPROCS, clamped to the domain size) bounded concurrently on
// the index's shared worker pool, each position by its own segment's
// filter; the refine stage fans exact-distance verifications over the same
// pool, with a k-NN query propagating its current k-th-best distance across
// workers through an atomic so late verifications prune harder. Tombstoned
// positions are skipped, by a cursor over the sorted tombstone ids, before
// any bound is computed.
//
// The filter is a bound cascade, cheapest tier first (see Bounder): the
// size bound ||q|−|t||, then ⌈BDist/Factor⌉, then the label-histogram
// bound ⌈L1/2⌉ of Kailing et al. as swept, and only for the trees all
// three leave standing the label bound made exact and the filter's full
// bound, the positional one. BDist and the label overlaps come from the
// paper's inverted file (Algorithm 1): before the shards start, each
// sealed segment sweeps the postings of the query's branches and of its
// labels once into its range of a pooled per-query accumulator, which
// every later reader of the tiers — the shards, the funnel, EXPLAIN, the
// tightness sample — looks up by position. The sweep credits every
// carrier of a dense label with the query's full count of it; the exact
// label tier takes back the excess from the label's count column, for a
// tree the cheap tiers leave standing. Only the memtable, which has no
// postings, merge-joins two flat branch vectors per tree, and has no label
// tier. A range query stands a tree down at tau; a k-NN query at the live
// k-th-best distance, so it reads the exact label tier and the full bound
// lazily, in cheap-bound order, while it verifies, and skips the full
// bound where the exact label tier already exceeds the threshold (see
// knnScan). The cheap tiers stop at a limit: a range query's tau, so the
// size tier decides alone where it can, a memtable merge-join stops once
// Factor·tau is out of reach, and the label bound is read only for trees
// the first two leave standing; k-NN has no threshold and gets exact keys.
// Every tier is a sound lower bound, so no tier prunes a tree the answer
// holds, and the full bound dominates the size and BDist tiers. The label
// tiers may exceed the full bound — on small trees with telling labels
// they often do — so a tightened k-NN key is the largest of them, and a
// range candidate's bound likewise. The label tiers prune trees the
// positional bound would have let through, so candidates and
// verifications are fewer than a scan over the full bound alone would
// give; the results are the same. Stats.Pruned reports how many trees
// each tier eliminated; both label tiers count as the label tier.
//
// Results are shard- and segment-layout invariant by construction:
//
//   - every visible tree is bounded exactly once per tier it reaches, into
//     its own slot, and every per-segment bound is a sound lower bound of
//     the same edit distance (differently-built filters only differ in
//     tightness, never in soundness);
//   - k-NN candidates are verified in ascending (bound, id) order, and the
//     top-k heap breaks distance ties by id, so the answer is the unique
//     k-minimal (dist, id) set no matter which worker verified what or how
//     the dataset is cut into segments;
//   - a verification is skipped only when its bound exceeds the atomic
//     threshold, which never rises and ends at the final k-th distance —
//     by the lower-bound property such a tree cannot be in the answer.
//
// The refine stage is threshold-bounded: the query is prepared once per
// request (editdist.Prepare) and every verification is a Query.Within
// against the live cutoff (τ, or the k-NN atomic threshold), so most false
// positives are disproven before the tree DP — by the O(n) pre-checks, one
// allocation-free walk of the candidate, which is not decomposed, or by
// the banded sequence bound on the decomposed candidate (Guha et al.) —
// and most of the rest by an early-abandoned banded DP instead of the full
// program; a k-NN query's first k distances, verified before any cutoff
// exists, come from banded runs of a doubling search that the sequence
// bound seeds. This never changes results — a distance proven above
// the cutoff can't enter the answer — only the work:
// see the verifier type and the bounded-refine invariance tests, which
// hold it to an unbounded sequential scan.
//
// Stats.Verified (and therefore FalsePositives and Tightness) for k-NN can
// vary with worker timing — opportunistic pruning means a fast machine may
// verify a few candidates a slow one skips — but results, Candidates, the
// funnel and Results are deterministic. Range queries verify every
// candidate, so all their counters are deterministic too.

// shardCount resolves the shard count for a domain of n items.
func (ix *Index) shardCount(n int) int {
	s := ix.shards
	if s <= 0 {
		s = ix.pool.size
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardRange returns the half-open range of shard s out of S over n items.
func shardRange(n, S, s int) (lo, hi int) {
	return s * n / S, (s + 1) * n / S
}

// knn runs one k-NN query (Algorithm 2, sharded across segments).
func (ix *Index) knn(ctx context.Context, q *tree.Tree, k int, ex *Explain) ([]Result, Stats, error) {
	cut := ix.cut()
	stats := Stats{Dataset: cut.live}
	if k <= 0 || cut.live == 0 {
		return nil, stats, nil
	}
	if k > cut.live {
		k = cut.live
	}
	if ex != nil {
		ex.Segments = len(cut.segs)
	}

	// Stage spans hang off the caller's trace (nil span methods are
	// no-ops, so untraced queries pay one nil check per stage).
	span := obs.FromContext(ctx)

	// Every segment's postings sweep into the query's accumulator, which
	// the bounders read until the last verification.
	acc := getAcc(2 * cut.n)
	defer accPool.Put(acc)

	start := time.Now()
	fspan := span.StartChild("filter")
	sc, err := ix.filterKNN(ctx, cut, q, *acc, fspan)
	stats.FilterTime = time.Since(start)
	if err != nil {
		fspan.SetBool("canceled", true)
		fspan.End()
		return nil, stats, err
	}
	defer scanPool.Put(sc.bufs)
	fspan.SetInt("candidates", int64(len(sc.heap)))
	fspan.SetInt("segments", int64(len(cut.segs)))
	fspan.End()

	start = time.Now()
	rspan := span.StartChild("refine")
	out, err := ix.refineKNN(ctx, cut, q, k, sc, &stats, ex, rspan)
	// Full bounds are computed lazily, between verifications; their time
	// is the filter's, not the refine stage's.
	stats.FilterTime += sc.tightenTime
	stats.RefineTime = time.Since(start) - sc.tightenTime
	rspan.SetInt("pruned", int64(cut.live-stats.Verified))
	if err != nil {
		rspan.SetInt("verified", int64(stats.Verified))
		rspan.SetBool("canceled", true)
		rspan.End()
		return nil, stats, err
	}
	stats.Results = len(out)
	if len(out) > 0 {
		// A tree is a candidate when its bound does not exceed the final
		// k-th distance: no verification order could prune it unverified.
		stats.Candidates, stats.Pruned = sc.funnel(out[len(out)-1].Dist)
	}
	stats.Pruned.report(fspan)
	if ex != nil {
		ex.Bounds = sc.boundDist()
	}
	stats.FalsePositives = stats.Verified - len(out)
	rspan.SetInt("verified", int64(stats.Verified))
	rspan.SetInt("results", int64(len(out)))
	rspan.End()
	return out, stats, nil
}

// knnScan is the cascade state of one k-NN query. The filter stage gives
// every visible tree its three cheap bounds; the refine stage then consumes
// positions in ascending (bound, id) order from a min-heap, replacing a
// cheap key by the largest of it, the exact label tier and the filter's
// full bound only when it reaches the top — so the expensive tiers run for
// exactly the trees whose cheap key does not exceed the live k-th-best
// distance, and the full bound only for those the exact label tier does
// not put above it. A tightened key is never below the cheap one it
// replaces, so a position is handed out for verification only after every
// position with a smaller (tightened key, id) has been: verifications
// happen in the order a sort by tightened key would give.
type knnScan struct {
	cut   *qcut
	prims segBounders
	bufs  *scanBufs // backs the per-position slices below

	// Per global position: the size-tier bound, the larger of it and the
	// BDist tier's, the largest of the three cheap bounds (−1 for a
	// tombstoned position), raised to the exact label tier when the
	// position is tightened, and the tightened key, the larger of that and
	// the full bound where the full bound was computed (−1 until
	// tightened).
	size, bdist, cheap, tight []int32

	mu sync.Mutex
	// heap holds the positions not yet handed out, keyed
	// bound<<33 | tightened<<32 | position: among equal bounds cheap ones
	// sort first, so a whole level is tightened before any of it is
	// verified.
	heap        []uint64
	tightenTime time.Duration
	canceled    bool // the context ended while a level was being tightened
}

const tightened = 1 << 32

// scanBufs is a k-NN scan's per-position memory, four int32 bounds and a
// heap key per position, pooled like the accumulator so that a scan
// allocates nothing per tree in the steady state. A query puts it back
// when it returns.
type scanBufs struct {
	bounds []int32
	keys   []uint64
}

var scanPool sync.Pool

// getScanBufs returns the memory of a scan over n positions; like a new
// accumulator, a new one has room for a few more.
func getScanBufs(n int) *scanBufs {
	b, ok := scanPool.Get().(*scanBufs)
	if !ok || cap(b.keys) < n {
		b = &scanBufs{bounds: make([]int32, 4*n, 4*(n+n/8)), keys: make([]uint64, n, n+n/8)}
	}
	b.bounds, b.keys = b.bounds[:4*n], b.keys[:n]
	return b
}

// filterKNN computes every visible tree's cheap bounds — sharded when the
// index is configured for it — and heapifies the positions by them.
func (ix *Index) filterKNN(ctx context.Context, cut *qcut, q *tree.Tree, acc []int32, fspan *obs.Span) (*knnScan, error) {
	n := cut.n
	bufs := getScanBufs(n)
	sc := &knnScan{
		cut:   cut,
		prims: newSegBounders(cut, q, acc),
		bufs:  bufs,
		size:  bufs.bounds[:n],
		bdist: bufs.bounds[n : 2*n],
		cheap: bufs.bounds[2*n : 3*n],
		tight: bufs.bounds[3*n:],
	}

	// Each shard bounds a contiguous position block into disjoint slots,
	// its block's heap keys included, from the start of the block on. The
	// cheap tiers only read, so every shard uses the one bounder set.
	S := ix.shardCount(n)
	keys, ends := bufs.keys, make([]int, S)
	var canceled atomic.Bool
	ix.pool.run(S, func(s int) {
		if canceled.Load() {
			return
		}
		var sspan *obs.Span
		if S > 1 {
			sspan = fspan.StartChild(fmt.Sprintf("shard[%d]", s))
			defer sspan.End()
		}
		lo, hi := shardRange(n, S, s)
		end := lo
		si, _, first := cut.locate(lo)
		tombs := cut.tombs.From(first)
		for pos := lo; pos < hi; pos++ {
			if (pos-lo)%ctxCheckEvery == 0 && (canceled.Load() || ctx.Err() != nil) {
				canceled.Store(true)
				sspan.SetBool("canceled", true)
				return
			}
			for pos >= cut.starts[si+1] {
				si++
			}
			local := pos - cut.starts[si]
			sc.tight[pos] = -1
			if tombs.Has(cut.segs[si].ID(local)) {
				sc.cheap[pos] = -1
				continue
			}
			sz, bd, lb := sc.prims[si].CheapBounds(local, noLimit)
			c := max(sz, bd, lb)
			sc.size[pos], sc.bdist[pos], sc.cheap[pos] = int32(sz), int32(max(sz, bd)), int32(c)
			keys[end] = uint64(c)<<33 | uint64(pos)
			end++
		}
		ends[s] = end
		sspan.SetInt("bounds", int64(end-lo))
	})
	if canceled.Load() || ctx.Err() != nil {
		scanPool.Put(bufs)
		return nil, ctx.Err()
	}

	// Close the gaps the tombstones left between the blocks' keys.
	m := ends[0]
	for s := 1; s < S; s++ {
		lo, _ := shardRange(n, S, s)
		m += copy(keys[m:], keys[lo:ends[s]])
	}
	sc.heap = keys[:m]
	for i := len(sc.heap)/2 - 1; i >= 0; i-- {
		siftDown(sc.heap, i)
	}
	return sc, nil
}

// siftDown restores the min-heap order below index i.
func siftDown(h []uint64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// next hands out the position to verify next, in ascending (tightened key,
// id) order, tightening cheap bounds as they surface. It reports false
// once the smallest remaining bound exceeds thresh — bounds in the heap
// only grow and the threshold only falls, so nothing left can enter the
// answer — the heap is empty, or the context ended mid-level (canceled is
// then set). Safe for concurrent use; tightening is serialized under the
// scan's lock.
func (sc *knnScan) next(ctx context.Context, thresh *atomic.Int64) (pos, bound int, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for len(sc.heap) > 0 && !sc.canceled {
		top := sc.heap[0]
		if int64(top>>33) > thresh.Load() {
			return 0, 0, false
		}
		if top&tightened != 0 {
			last := len(sc.heap) - 1
			sc.heap[0] = sc.heap[last]
			sc.heap = sc.heap[:last]
			siftDown(sc.heap, 0)
			return int(uint32(top)), int(top >> 33), true
		}
		// The minimum is a cheap bound: tighten its whole level, which
		// sorts ahead of everything else, as one timed batch.
		t0 := time.Now()
		for i := 0; len(sc.heap) > 0 && sc.heap[0]>>32 == top>>32; i++ {
			if i%ctxCheckEvery == ctxCheckEvery-1 && ctx.Err() != nil {
				sc.canceled = true
				break
			}
			p := int(uint32(sc.heap[0]))
			si, local, _ := sc.cut.locate(p)
			b := sc.prims[si]
			tb := max(b.ExactLabel(local), int(sc.cheap[p]))
			sc.cheap[p] = int32(tb)
			if int64(tb) <= thresh.Load() {
				tb = max(b.KNNBound(local), tb)
			}
			sc.tight[p] = int32(tb)
			sc.heap[0] = uint64(tb)<<33 | tightened | uint64(p)
			siftDown(sc.heap, 0)
		}
		sc.tightenTime += time.Since(t0)
	}
	return 0, 0, false
}

// funnel classifies every visible tree against the final k-th distance:
// pruned by the first tier whose bound exceeds it, or a candidate. Every
// tree whose cheap bounds do not exceed worst was tightened before the
// scan stopped (it sorted ahead of whatever stopped it), so its exact
// label tier is known, and its full bound too unless that tier exceeded
// the threshold of the moment, which is never below worst.
func (sc *knnScan) funnel(worst int) (candidates int, f Funnel) {
	for pos, c := range sc.cheap {
		switch {
		case c < 0: // tombstoned
		case int(sc.size[pos]) > worst:
			f.Size++
		case int(sc.bdist[pos]) > worst:
			f.BDist++
		case int(c) > worst:
			f.Label++
		case int(sc.tight[pos]) > worst:
			f.Positional++
		default:
			candidates++
		}
	}
	return candidates, f
}

// boundDist summarizes every visible tree's deciding bound: the full
// bound where the scan computed it, the cheap bound that sufficed where
// it did not.
func (sc *knnScan) boundDist() BoundDist {
	col := &explainCollector{bounds: make([]int, 0, sc.cut.live)}
	for pos, c := range sc.cheap {
		switch {
		case c < 0:
		case sc.tight[pos] >= 0:
			col.addBound(int(sc.tight[pos]))
		default:
			col.addBound(int(c))
		}
	}
	return col.boundDist()
}

// verifier is the refine stage's shared verification kernel: both query
// kinds funnel their exact-distance computations through it, so the
// bounded-verification logic — live cutoff, pre-checks, early abandoning,
// DP-cell accounting — lives in exactly one place. cutoff returns the
// threshold a distance must not exceed to matter for the answer: τ for
// range queries, the current k-th-best for k-NN — none, until k distances
// are known, in which case Query.Within searches for a cutoff itself and
// its cells count every run it takes. It is read once per verification,
// before the DP; for k-NN that read can be stale, but the threshold only
// ever decreases, so a stale value is merely a looser (still correct)
// cutoff.
type verifier struct {
	cut    *qcut
	q      *editdist.Query
	cutoff func() int

	verified    atomic.Int64
	aborted     atomic.Int64
	prechecked  atomic.Int64
	dpCells     atomic.Int64
	dpCellsFull atomic.Int64
}

// newVerifier prepares the query once for every verification of the
// request; the workers share it read-only.
func (ix *Index) newVerifier(cut *qcut, q *tree.Tree, cutoff func() int) *verifier {
	return &verifier{cut: cut, q: editdist.Prepare(q, editdist.WithCost(ix.cost)), cutoff: cutoff}
}

// verify computes the edit distance between the query and the tree at
// global position pos. within reports whether d is the exact distance
// (it was ≤ the cutoff at verification time); when false, d is only a
// certified lower bound — the tree is provably too far to matter, which
// is all the engine needs.
func (v *verifier) verify(pos int) (si, local, gid, d int, within bool) {
	si, local, gid = v.cut.locate(pos)
	t := v.cut.treeOf(si, local)
	v.verified.Add(1)
	var m editdist.Metrics
	d, within = v.q.Within(t, v.cutoff(), &m)
	if !within {
		if m.Precheck {
			v.prechecked.Add(1)
		} else {
			v.aborted.Add(1)
		}
	}
	v.dpCells.Add(m.Cells)
	v.dpCellsFull.Add(m.FullCells)
	return si, local, gid, d, within
}

// finish copies the verifier's counters into the query stats and the
// refine span. dp_cells is the dynamic-programming work the refine stage
// actually paid; dp_cells_full is what full verification of the same
// pairs would have cost — the paper's accessed-fraction measure, made
// cell-exact.
func (v *verifier) finish(stats *Stats, rspan *obs.Span) {
	stats.Verified = int(v.verified.Load())
	stats.RefineAborted = int(v.aborted.Load())
	stats.PrecheckRejects = int(v.prechecked.Load())
	stats.DPCells = v.dpCells.Load()
	stats.DPCellsFull = v.dpCellsFull.Load()
	rspan.SetInt("dp_cells", stats.DPCells)
	rspan.SetInt("dp_cells_full", stats.DPCellsFull)
	rspan.SetInt("aborted", int64(stats.RefineAborted))
	rspan.SetInt("precheck_rejects", int64(stats.PrecheckRejects))
}

// clampCutoff converts the k-NN atomic threshold to an editdist cutoff.
func clampCutoff(v int64) int {
	if v > int64(math.MaxInt) {
		return math.MaxInt
	}
	return int(v)
}

// refineKNN verifies candidates in ascending-bound order on the worker
// pool, maintaining the k-minimal (dist, id) heap under a mutex and the
// current k-th distance in an atomic that only ever decreases. Workers
// draw positions from the scan until it reports that the smallest
// remaining bound is above the threshold: everything not yet handed out
// bounds at least as high and cannot enter the answer.
//
// The same threshold is the bounded verifier's cutoff: a candidate enters
// the heap only with d < top.Dist, or d == top.Dist on an id tie-break, so
// a distance proven > thresh can never change the answer. While the heap
// is short the threshold is MaxInt64, so every verification is exact, and
// Query.Within finds each such distance by its doubling search over
// banded runs rather than the band-off program.
func (ix *Index) refineKNN(ctx context.Context, cut *qcut, q *tree.Tree, k int, sc *knnScan, stats *Stats, ex *Explain, rspan *obs.Span) ([]Result, error) {
	var (
		mu       sync.Mutex
		h        = &maxHeap{}
		canceled atomic.Bool
		thresh   atomic.Int64
	)
	thresh.Store(math.MaxInt64) // nothing prunes until the heap holds k
	ver := ix.newVerifier(cut, q, func() int { return clampCutoff(thresh.Load()) })

	ix.pool.run(ix.pool.size, func(int) {
		for !canceled.Load() {
			pos, bound, ok := sc.next(ctx, &thresh)
			if !ok {
				return
			}
			// A verification can cost milliseconds, so check the context
			// before every one.
			if ctx.Err() != nil {
				canceled.Store(true)
				return
			}
			si, local, gid, d, within := ver.verify(pos)
			if !within {
				continue
			}
			mu.Lock()
			sampleTightness(sc.prims[si], stats, ex, local, gid, bound, d)
			switch {
			case h.Len() < k:
				heap.Push(h, Result{ID: gid, Dist: d})
				if h.Len() == k {
					thresh.Store(int64(h.top().Dist))
				}
			case d < h.top().Dist || (d == h.top().Dist && gid < h.top().ID):
				h.items[0] = Result{ID: gid, Dist: d}
				heap.Fix(h, 0)
				thresh.Store(int64(h.top().Dist))
			}
			mu.Unlock()
		}
	})
	ver.finish(stats, rspan)
	if canceled.Load() || sc.canceled {
		return nil, ctx.Err()
	}

	out := make([]Result, h.Len())
	copy(out, h.items)
	sortResults(out)
	return out, nil
}

// rangeq runs one range query (filter-and-refine, sharded across
// segments).
func (ix *Index) rangeq(ctx context.Context, q *tree.Tree, tau int, ex *Explain) ([]Result, Stats, error) {
	cut := ix.cut()
	stats := Stats{Dataset: cut.live}
	if tau < 0 || cut.live == 0 {
		return nil, stats, nil
	}
	if ex != nil {
		ex.Segments = len(cut.segs)
	}

	span := obs.FromContext(ctx)

	acc := getAcc(2 * cut.n)
	defer accPool.Put(acc)

	start := time.Now()
	fspan := span.StartChild("filter")
	prims, rs, err := ix.filterRange(ctx, cut, q, tau, *acc, fspan, ex != nil)
	stats.FilterTime = time.Since(start)
	if err != nil {
		fspan.SetBool("canceled", true)
		fspan.End()
		return nil, stats, err
	}
	stats.Candidates = len(rs.cands)
	stats.Pruned = rs.pruned
	fspan.SetInt("candidates", int64(len(rs.cands)))
	fspan.SetInt("segments", int64(len(cut.segs)))
	stats.Pruned.report(fspan)
	fspan.End()
	if ex != nil {
		ex.Bounds = rs.col.boundDist()
	}

	start = time.Now()
	rspan := span.StartChild("refine")
	out, err := ix.refineRange(ctx, cut, q, tau, rs.cands, rs.bounds, prims, &stats, ex, rspan)
	stats.RefineTime = time.Since(start)
	if err != nil {
		rspan.SetInt("verified", int64(stats.Verified))
		rspan.SetBool("canceled", true)
		rspan.End()
		return nil, stats, err
	}
	stats.Results = len(out)
	stats.FalsePositives = stats.Verified - len(out)
	rspan.SetInt("verified", int64(stats.Verified))
	rspan.SetInt("results", int64(len(out)))
	rspan.End()
	return out, stats, nil
}

// rangeScan is what the range cascade produced over (a shard of) the
// position domain: the surviving candidates with their bounds in position
// order, the funnel of the visible trees and, when asked, their deciding
// bounds.
type rangeScan struct {
	cands, bounds []int
	pruned        Funnel
	col           *explainCollector
}

// filterRange runs the bound cascade over every visible position, sharded
// when configured: the size tier, then the branch-distance tier, then the
// swept label tier and, for trees all three leave at or under tau, the
// exact label tier and, where it stays there too, the filter's range
// bound. The cheap tiers stop at tau unless EXPLAIN wants the
// exact deciding bounds.
func (ix *Index) filterRange(ctx context.Context, cut *qcut, q *tree.Tree, tau int, acc []int32, fspan *obs.Span, wantBounds bool) (segBounders, *rangeScan, error) {
	prims := newSegBounders(cut, q, acc)
	limit := tau
	if wantBounds {
		limit = noLimit
	}

	S := ix.shardCount(cut.n)
	outs := make([]rangeScan, S)
	var canceled atomic.Bool
	ix.pool.run(S, func(s int) {
		if canceled.Load() {
			return
		}
		sspan := fspan
		if S > 1 {
			sspan = fspan.StartChild(fmt.Sprintf("shard[%d]", s))
			defer sspan.End()
		}
		lo, hi := shardRange(cut.n, S, s)
		o := &outs[s]
		if wantBounds {
			o.col = &explainCollector{bounds: make([]int, 0, hi-lo)}
		}
		// The segment under the cursor, re-resolved when a position leaves
		// its range (an empty range forces the first resolve): this loop
		// runs once per tree of the dataset, so it keeps the segment, its
		// bounder and the counters in locals.
		var (
			segLo, segHi                      int
			sg                                *segstore.Segment
			b                                 Bounder
			bySize, byBDist, byLabel, byBound int
		)
		_, _, first := cut.locate(lo)
		tombs := cut.tombs.From(first)
		for pos := lo; pos < hi; pos++ {
			if (pos-lo)%ctxCheckEvery == 0 && (canceled.Load() || ctx.Err() != nil) {
				canceled.Store(true)
				if S > 1 {
					sspan.SetBool("canceled", true)
				}
				return
			}
			if pos < segLo || pos >= segHi {
				si := cut.segOf(pos)
				segLo, segHi = cut.starts[si], cut.starts[si+1]
				sg, b = cut.segs[si], prims[si]
			}
			local := pos - segLo
			if tombs.Has(sg.ID(local)) {
				continue
			}
			sz, bd, lb := b.CheapBounds(local, limit)
			if sz <= tau && bd <= tau && lb <= tau {
				lb = b.ExactLabel(local)
			}
			switch {
			case sz > tau:
				bySize++
				o.col.addBound(sz)
			case bd > tau:
				byBDist++
				o.col.addBound(bd)
			case lb > tau:
				byLabel++
				o.col.addBound(lb)
			default:
				rb := max(b.RangeBound(local, tau), lb)
				o.col.addBound(rb)
				if rb > tau {
					byBound++
				} else {
					o.cands = append(o.cands, pos)
					o.bounds = append(o.bounds, rb)
				}
			}
		}
		o.pruned = Funnel{Size: bySize, BDist: byBDist, Label: byLabel, Positional: byBound}
		if S > 1 {
			sspan.SetInt("bounds", int64(hi-lo))
		}
	})
	if canceled.Load() || ctx.Err() != nil {
		return prims, nil, ctx.Err()
	}

	// Concatenating in shard order reproduces the sequential position
	// order, so the candidate list is byte-identical for every S.
	rs := &outs[0]
	for _, o := range outs[1:] {
		rs.cands = append(rs.cands, o.cands...)
		rs.bounds = append(rs.bounds, o.bounds...)
		rs.pruned.add(o.pruned)
		if rs.col != nil {
			rs.col.bounds = append(rs.col.bounds, o.col.bounds...)
		}
	}
	return prims, rs, nil
}

// refineRange verifies every candidate on the worker pool. There is no
// early termination (the radius is fixed), so Verified — and, because the
// cutoff τ is the same for every candidate, the whole bounded-verification
// breakdown — is deterministic; the final sort makes the result order
// independent of worker timing.
func (ix *Index) refineRange(ctx context.Context, cut *qcut, q *tree.Tree, tau int, candidates, candBounds []int, prims segBounders, stats *Stats, ex *Explain, rspan *obs.Span) ([]Result, error) {
	var (
		mu       sync.Mutex
		out      []Result
		canceled atomic.Bool
	)
	ver := ix.newVerifier(cut, q, func() int { return tau })
	ix.pool.run(len(candidates), func(j int) {
		if canceled.Load() {
			return
		}
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		si, local, gid, d, within := ver.verify(candidates[j])
		if !within {
			// Proven > τ; an inexact distance carries no tightness signal.
			return
		}
		mu.Lock()
		sampleTightness(prims[si], stats, ex, local, gid, candBounds[j], d)
		out = append(out, Result{ID: gid, Dist: d})
		mu.Unlock()
	})
	ver.finish(stats, rspan)
	if canceled.Load() {
		return nil, ctx.Err()
	}
	sortResults(out)
	return out, nil
}

// sortResults orders results by ascending (dist, id) — the canonical
// answer order every query method documents.
func sortResults(out []Result) {
	sort.Slice(out, func(x, y int) bool {
		if out[x].Dist != out[y].Dist {
			return out[x].Dist < out[y].Dist
		}
		return out[x].ID < out[y].ID
	})
}
