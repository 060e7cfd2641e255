package search

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"treesim/internal/editdist"
	"treesim/internal/segstore"
	"treesim/internal/tree"
)

// Result is one answer of a similarity query.
type Result struct {
	ID   int // dataset id of the tree
	Dist int // exact tree edit distance to the query
}

// Stats records what one query cost. The headline measure of the paper's
// experiments is AccessedFraction — the share of the dataset whose real
// edit distance had to be computed. Candidates, FalsePositives and
// Tightness are the filter-quality counters behind EXPLAIN and the
// server's metrics; they are cheap enough to compute on every
// query.
//
// Every field but FilterTime and RefineTime is deterministic for a fixed
// index state: one goroutine runs a query, so the same query over the same
// segments verifies the same trees in the same order, at the same cutoffs.
type Stats struct {
	Dataset        int           // visible dataset size (tombstoned trees excluded)
	Candidates     int           // trees the filter could not prune (see Explain.Candidates)
	Verified       int           // trees the refine stage took to verification
	Results        int           // result set size
	FalsePositives int           // verified candidates whose exact distance failed the predicate
	FilterTime     time.Duration // time spent computing lower bounds
	RefineTime     time.Duration // time spent computing exact distances
	// Pruned is the filter's funnel: how many trees each tier of the bound
	// cascade eliminated. It sums to Dataset − Candidates.
	Pruned Funnel
	// Bounded-verification breakdown: of the Verified attempts,
	// PrecheckRejects were disproven before the tree DP, by an O(n)
	// pre-check or the sequence bound, RefineAborted by the DP
	// abandoning early once the distance provably exceeded the live
	// cutoff, and Certified were answered exactly with no DP, by an
	// alignment of the postorder label sequences that is also a tree
	// mapping (editdist.Metrics.Certified). DPCells is the
	// dynamic-programming cells actually computed across the query's
	// verifications, every run of a k-NN query's cutoff-free doubling
	// searches included; DPCellsFull is what the band-off program would
	// have computed for the same pairs — the gap is the refine work the
	// cutoffs and the certificate saved.
	RefineAborted   int
	PrecheckRejects int
	Certified       int
	DPCells         int64
	DPCellsFull     int64
	// Tightness holds sampled BDist/EDist ratios of verified pairs (capped
	// per query), when the filter exposes a branch distance. Each ratio is
	// provably ≤ the filter's Factor; the server feeds them into a
	// histogram.
	Tightness []float64
}

// AccessedFraction returns Verified/Dataset in [0,1].
func (s Stats) AccessedFraction() float64 {
	if s.Dataset == 0 {
		return 0
	}
	return float64(s.Verified) / float64(s.Dataset)
}

// Total returns the end-to-end query time.
func (s Stats) Total() time.Duration { return s.FilterTime + s.RefineTime }

// Add accumulates another query's stats (for averaging over query sets).
// Tightness samples are carried over up to a fixed cap, so aggregates over
// arbitrarily many queries keep bounded memory.
func (s *Stats) Add(o Stats) {
	s.Dataset += o.Dataset
	s.Candidates += o.Candidates
	s.Verified += o.Verified
	s.Results += o.Results
	s.FalsePositives += o.FalsePositives
	s.FilterTime += o.FilterTime
	s.RefineTime += o.RefineTime
	s.Pruned.add(o.Pruned)
	s.RefineAborted += o.RefineAborted
	s.PrecheckRejects += o.PrecheckRejects
	s.Certified += o.Certified
	s.DPCells += o.DPCells
	s.DPCellsFull += o.DPCellsFull
	if room := statsTightnessCap - len(s.Tightness); room > 0 {
		if len(o.Tightness) < room {
			room = len(o.Tightness)
		}
		s.Tightness = append(s.Tightness, o.Tightness[:room]...)
	}
}

// FalsePositiveRate returns FalsePositives/Verified in [0,1].
func (s Stats) FalsePositiveRate() float64 {
	if s.Verified == 0 {
		return 0
	}
	return float64(s.FalsePositives) / float64(s.Verified)
}

func (s Stats) String() string {
	out := fmt.Sprintf("verified %d/%d (%.2f%%), %d candidates, %d false positives, filter %v, refine %v",
		s.Verified, s.Dataset, 100*s.AccessedFraction(), s.Candidates, s.FalsePositives, s.FilterTime, s.RefineTime)
	if s.RefineAborted > 0 || s.PrecheckRejects > 0 || s.Certified > 0 {
		out += fmt.Sprintf(", bounded: %d aborted, %d precheck rejects, %d certified, %d/%d dp cells",
			s.RefineAborted, s.PrecheckRejects, s.Certified, s.DPCells, s.DPCellsFull)
	}
	return out
}

// Index is a similarity-searchable tree collection with a storage
// lifecycle: the dataset lives in a segmented, epoch-based store
// (internal/segstore) — inserts land in a small mutable memtable, sealed
// segments are immutable with their own pre-built profiles and postings,
// deletes are tombstones, and background compaction merges segments back
// into one.
//
// An Index is safe for concurrent use, and reads don't block writes:
// queries snapshot the segment list and run the engine across its segments,
// so a long query never delays an insert and an insert never invalidates a
// running query's view. Each query runs on its caller's goroutine. Dataset
// ids are assigned monotonically and never reused; results across any
// segment layout are identical (see the segment-layout invariance tests).
type Index struct {
	filter *BiBranch // the filter configuration every segment is indexed under; nil: sequential scan
	cost   editdist.CostModel

	store        *segstore.Store
	onCompaction atomic.Pointer[func(CompactionStats)]
}

// ctxCheckEvery is how many cheap filter-bound computations happen between
// context checks. Exact-distance verifications check on every iteration —
// a single verification can cost milliseconds.
const ctxCheckEvery = 1024

// defaultCost is the cost model of indexes built without an explicit one.
func defaultCost() editdist.CostModel { return editdist.UnitCost{} }

// NewIndex builds an index over the dataset, preprocessing the whole
// dataset once under the selected filter. Options pick the filter, the
// cost model and the storage lifecycle:
//
//	ix := search.NewIndex(ts, search.NewBiBranch(),
//	    search.WithMemtableSize(512))
//
// With no filter option (or a nil one) the index degenerates to the
// sequential scan; with no cost option it uses unit edit costs.
func NewIndex(ts []*tree.Tree, opts ...IndexOption) *Index {
	cfg := applyIndexOpts(opts)
	return build(cfg, cfg.filter, nil, ts, len(ts))
}

// build indexes trees, whose dataset ids are ids (nil: 0, 1, …), under f
// as one sealed segment, and returns an index over it whose next insert
// gets id next. The index keeps a copy of f, so the caller's value stays
// its own.
func build(cfg indexConfig, f *BiBranch, ids []int, trees []*tree.Tree, next int) *Index {
	if f != nil {
		c := *f
		f = &c
	}
	var segs []*segstore.Segment
	if len(trees) > 0 {
		segs = []*segstore.Segment{newSegment(ids, trees, f)}
	}
	ix := &Index{
		filter: f,
		cost:   cfg.cost,
	}
	ix.store = segstore.New(segstore.Config{
		MemtableSize: cfg.memtableSize,
		CompactAfter: cfg.compactAfter,
	}, ix.segHooks())
	ix.store.Bootstrap(segs, next)
	return ix
}

// Size returns the dataset's id high-water mark: the id the next insert
// will be assigned. Deleted ids stay burned, so Size never decreases and
// is NOT the visible tree count — see Live for that. (Keeping Size as the
// high-water mark is what makes WAL replay idempotent: a log record for
// position p applies exactly when p == Size.)
func (ix *Index) Size() int { return ix.store.NextID() }

// Live returns the number of visible (non-tombstoned) trees.
func (ix *Index) Live() int { return ix.store.Stats().Live }

// StoreStats snapshots the storage engine's gauges (segment count,
// memtable fill, tombstones, seal/compaction counters).
func (ix *Index) StoreStats() segstore.Stats { return ix.store.Stats() }

// Insert appends a tree, returning its dataset id: the tree lands in the
// memtable segment, which profiles it into its own branch space. The error
// is always nil and remains in the signature for compatibility.
//
// Insert is safe to call concurrently with queries — it never blocks on
// them. When the insert fills the memtable, the memtable is sealed within
// the call, under the store's lock: the seal builds the new segment's
// postings (segPayload.seal → invfile.Build) over the
// memtable's branch space, which every memtable starts empty, so the
// seal's cost follows the segment, not the index. A seal insert of 64
// DBLP records beside 10 000 others took a median of 40–60 µs over 200
// seals, a plain insert 1.6–3.0 µs (2-vCPU Xeon). A background
// compaction then starts if the sealed-segment count reached the
// configured threshold.
func (ix *Index) Insert(t *tree.Tree) (int, error) {
	id, sealed := ix.store.Insert(func(id int, mem any) { mem.(*segPayload).add(t) })
	if sealed {
		ix.maybeCompact()
	}
	return id, nil
}

// Delete tombstones the tree with the given id so it no longer appears in
// any query result. It reports false when the id was never assigned or is
// already deleted. The tree's storage is reclaimed at the next
// compaction, and its text is left out of every snapshot saved after the
// delete; the id is never reused.
func (ix *Index) Delete(id int) bool { return ix.store.Delete(id) }

// Seal freezes the current memtable into an immutable segment regardless
// of fill, for tests and benchmarks that fix a segment layout. A snapshot
// does not keep the layout: a load builds one segment. It reports whether
// anything was sealed.
func (ix *Index) Seal() bool { return ix.store.Seal() }

// TreeAt returns the tree with dataset id i and true, or nil and false
// when the id was never assigned or the tree is deleted. Ids are stable:
// assigned monotonically and never reused.
func (ix *Index) TreeAt(i int) (*tree.Tree, bool) {
	c := ix.store.Read()
	sg, local, ok := c.Find(i)
	if !ok {
		return nil, false
	}
	return payloadOf(sg).trees[local], true
}

// Tree returns the tree with dataset id i. It panics when the id is
// absent; see TreeAt for the checked variant.
func (ix *Index) Tree(i int) *tree.Tree {
	t, ok := ix.TreeAt(i)
	if !ok {
		panic(fmt.Sprintf("search: no tree %d", i))
	}
	return t
}

// Filter returns the filter configuration every segment of the index is
// indexed under; nil is the sequential scan.
func (ix *Index) Filter() *BiBranch { return ix.filter }

// KNN returns the k nearest neighbors of q by tree edit distance,
// implementing Algorithm 2 over the segmented store: lower bounds are
// computed for every visible tree (each segment bounded by its own
// profiles), candidates are verified in ascending bound order, and the scan
// stops as soon as the next bound exceeds the current k-th distance. The
// result is sorted by ascending distance (ties by ascending ID) and is
// identical for every segment configuration.
//
// The scan checks ctx before every exact-distance verification (and
// periodically during the cheap filter pass) and returns ctx.Err() with
// nil results and the stats accumulated so far. A nil error means the
// result is complete and exact.
func (ix *Index) KNN(ctx context.Context, q *tree.Tree, k int, opts ...QueryOption) ([]Result, Stats, error) {
	qc := applyQueryOpts(opts)
	var ex *Explain
	if qc.explain != nil {
		*qc.explain = nil
		ex = &Explain{Op: "knn", K: k}
	}
	res, stats, err := ix.query(ctx, q, k, -1, ex)
	if err != nil {
		return nil, stats, err
	}
	if qc.explain != nil {
		ex.finish(ix.filter, stats)
		*qc.explain = ex
	}
	return res, stats, err
}

// Range returns every tree within edit distance tau of q (inclusive),
// sorted by ascending distance then ID. A candidate is verified only when
// its range lower bound does not exceed tau; the lower-bound property makes
// the result exact. Cancellation follows the same contract as KNN.
func (ix *Index) Range(ctx context.Context, q *tree.Tree, tau int, opts ...QueryOption) ([]Result, Stats, error) {
	qc := applyQueryOpts(opts)
	var ex *Explain
	if qc.explain != nil {
		*qc.explain = nil
		ex = &Explain{Op: "range", Tau: tau}
	}
	res, stats, err := ix.query(ctx, q, 0, tau, ex)
	if err != nil {
		return nil, stats, err
	}
	if qc.explain != nil {
		ex.finish(ix.filter, stats)
		*qc.explain = ex
	}
	return res, stats, err
}

// maxHeap is a max-heap of Results keyed by (distance, id), holding the
// current k best candidates; the root is the worst of them (the pruning
// key). Breaking distance ties by id makes the heap's final content the
// unique k-minimal (dist, id) set, independent of insertion order — what
// makes k-NN results segment-layout invariant.
type maxHeap struct {
	items []Result
}

func (h *maxHeap) Len() int { return len(h.items) }
func (h *maxHeap) Less(i, j int) bool {
	if h.items[i].Dist != h.items[j].Dist {
		return h.items[i].Dist > h.items[j].Dist
	}
	return h.items[i].ID > h.items[j].ID
}
func (h *maxHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *maxHeap) Push(x interface{}) { h.items = append(h.items, x.(Result)) }
func (h *maxHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
func (h *maxHeap) top() Result { return h.items[0] }
