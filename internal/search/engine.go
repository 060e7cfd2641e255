package search

import (
	"container/heap"
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"treesim/internal/editdist"
	"treesim/internal/obs"
	"treesim/internal/tree"
)

// The query engine over the segmented store: Algorithm 2, one sequential
// filter-and-refine pass on the caller's goroutine. A query starts by
// taking a consistent cut of the store — the sealed segments plus a frozen
// memtable snapshot — and flattens them into one global position domain
// [0, n); positions ascend with dataset ids. The filter stage bounds that
// domain in one pass, each position by its own segment's profiles; the
// refine stage verifies the trees it hands out one after another, and a
// k-NN query's k-th-best distance, which only falls, prunes every later
// verification. Tombstoned positions are found once per run of positions,
// off the sorted tombstone ids, and get no bound. Concurrent queries on one
// Index each run on their own goroutine and share nothing they write.
//
// The filter is a bound cascade, cheapest tier first (see biBranchBounder): the
// size bound ||q|−|t||, then ⌈BDist/Factor⌉, then the label-histogram
// bound ⌈L1/2⌉ of Kailing et al. as swept; for the trees all three leave
// standing the label bound made exact and the filter's full bound, the
// positional one; and last, just before verification, Guha et al.'s
// sequence bound, read off the tree's branch profile (every node roots one
// branch, so the profile's occurrences and the space's root labels give
// the postorder and preorder label sequences without walking the tree)
// and capped one above the threshold. BDist and the label overlaps come
// from the paper's inverted file (Algorithm 1): before the filter pass,
// each sealed segment sweeps the postings of the query's branches and of
// its labels once into its range of a pooled per-query accumulator, which
// every later reader of the tiers — the filter pass, the lazy tiers, the
// tightness sample — looks up by position. A segment without postings, the
// memtable, fills the same range in one pass over its profiles, exactly
// (segPayload.fill). The filter pass runs the three cheap tiers
// (cheapPass): over every segment, one kernel reads the segment's size
// column and the two overlap columns and writes every tree's level and
// counts (biBranchBounder.levels), with no call, pointer chase or
// tombstone probe per tree. The sweep credits every carrier of a dense
// label with the query's full count of it; the exact label tier takes back
// the excess from the label's count column, for a tree the cheap tiers
// leave standing. Every cheap bound is exact.
//
// Both query kinds are then one scan (Algorithm 2; see scan), which stands
// a tree down at the threshold: a range query's tau, which never moves, or
// a k-NN query's live k-th-best distance, which only falls. The filter pass
// keeps each tree's largest cheap bound and counts the trees per value of
// each, and the scan reads every later tier lazily, while it verifies,
// only for the trees whose key under the tiers before surfaces within the
// threshold. The full bound is one call for both kinds, the positional
// search at the threshold of the moment (biBranchBounder.Full): exact where
// it is within that threshold, where it equals a range query's bound at
// tau too (Section 4.3), and cut short above it, where no threshold, which
// only falls, lets the tree back in. Every tier is a sound lower bound, so
// no tier prunes a tree the answer holds, and the full bound dominates the
// size and BDist tiers. The label tiers may exceed the full bound — on
// small trees with telling labels they often do — so a tightened key is
// the largest of them, and the positional search starts there. The label
// tiers prune trees the positional bound would have let through, and the
// sequence tier trees all of them would have, so candidates and
// verifications are fewer than a scan over the full bound alone would
// give; the results are the same. Stats.Pruned reports how many trees each
// tier eliminated; both label tiers count as the label tier.
//
// Results are segment-layout invariant by construction:
//
//   - every visible tree is bounded exactly once per tier it reaches, into
//     its own slot, and every per-segment bound is a sound lower bound of
//     the same edit distance (differently-built filters only differ in
//     tightness, never in soundness);
//   - candidates are verified in ascending (bound, id) order, and the
//     top-k heap breaks distance ties by id, so a k-NN answer is the
//     unique k-minimal (dist, id) set however the dataset is cut into
//     segments;
//   - a verification is skipped only when its bound, or its sequence tier,
//     exceeds the threshold, which never rises and ends at tau or the
//     final k-th distance — by the lower-bound property such a tree cannot
//     be in the answer.
//
// The refine stage is threshold-bounded: the query is prepared once per
// request (editdist.Prepare) and every verification is a Query.Within
// against the live cutoff (τ, or the k-NN threshold), so most of
// the false positives the filter leaves are disproven before the tree DP —
// by the O(n) pre-checks or the banded sequence bound, both read off one
// allocation-free decomposition of the candidate, and either made tighter
// than the filter's by a k-NN threshold that fell since the tree was
// handed out — and most of the rest by an early-abandoned banded DP
// instead of the full program; a k-NN query's
// first k distances, verified before any cutoff exists, come from banded
// runs of a doubling search that the sequence bound seeds. This never
// changes results — a distance proven above the cutoff can't enter the
// answer — only the work: see the verifier type and the bounded-refine
// invariance tests, which hold it to an unbounded sequential scan.
//
// One goroutine runs the whole query, so the order of its verifications,
// and with it every counter it reports, is a function of the query and the
// cut alone: the same inputs give the same Stats but for the two times.

// query runs one query (Algorithm 2, across segments): the k
// nearest trees to q when k is positive, else every tree within tau of it,
// none when tau is negative.
func (ix *Index) query(ctx context.Context, q *tree.Tree, k, tau int, ex *Explain) ([]Result, Stats, error) {
	cut := ix.cut()
	stats := Stats{Dataset: cut.live}
	fixed := k <= 0
	if fixed && tau < 0 || cut.live == 0 {
		return nil, stats, nil
	}
	k = min(k, cut.live)
	if ex != nil {
		ex.Segments = len(cut.segs)
	}

	// Stage spans hang off the caller's trace (nil span methods are
	// no-ops, so untraced queries pay one nil check per stage).
	span := obs.FromContext(ctx)

	// Every segment fills its columns of the query's accumulator, which
	// the bounders read until the last verification.
	acc := getAcc(&accPool, 2*cut.n)
	defer accPool.Put(acc)

	start := time.Now()
	fspan := span.StartChild("filter")
	sc, err := ix.filterPass(ctx, cut, q, *acc)
	stats.FilterTime = time.Since(start)
	if err != nil {
		fspan.SetBool("canceled", true)
		fspan.End()
		return nil, stats, err
	}
	defer scanPool.Put(sc.scanBufs)
	fspan.SetInt("bounded", int64(cut.live))
	fspan.SetInt("segments", int64(len(cut.segs)))
	fspan.End()

	// Nothing prunes a k-NN query until the heap holds k.
	thresh := math.MaxInt
	if fixed {
		sc.fixed, thresh = true, tau
	}
	start = time.Now()
	rspan := span.StartChild("refine")
	out, err := ix.refine(ctx, cut, q, k, thresh, sc, &stats, ex, rspan)
	// The last tiers are read lazily, between verifications; their time
	// is the filter's, not the refine stage's.
	stats.FilterTime += sc.lazyTime
	stats.RefineTime = time.Since(start) - sc.lazyTime
	rspan.SetInt("pruned", int64(cut.live-stats.Verified))
	if err != nil {
		rspan.SetInt("verified", int64(stats.Verified))
		rspan.SetBool("canceled", true)
		rspan.End()
		return nil, stats, err
	}
	stats.Results = len(out)
	// A tree is a candidate when its bound does not exceed the final
	// threshold, tau or the k-th distance: no verification order could
	// prune it unverified. A k-NN answer holds k trees: every tree is
	// verified, exactly, until it does.
	worst := tau
	if !fixed {
		worst = out[len(out)-1].Dist
	}
	stats.Candidates, stats.Pruned = sc.funnel(worst)
	fspan.SetInt("candidates", int64(stats.Candidates))
	stats.Pruned.report(fspan)
	if ex != nil {
		ex.Bounds = summarize(sc.decidingBounds(worst))
	}
	stats.FalsePositives = stats.Verified - len(out)
	rspan.SetInt("verified", int64(stats.Verified))
	rspan.SetInt("results", int64(len(out)))
	rspan.End()
	return out, stats, nil
}

// scan is the cascade state of one query of either kind. The filter stage
// keeps, of every visible tree's three cheap bounds, only the largest — the
// tree's level — and three histograms: how many visible trees there are at
// each value of the size tier, of the larger of it and the BDist tier, and
// of the level. The refine stage consumes positions in ascending (bound,
// id) order, reading each tier only for the trees whose key under the tiers
// before it surfaces within the threshold: tau, or the live k-th-best
// distance. A level is read when it is the lowest one unread and no key in
// the heap lies below it: each of its trees, in position order, gets the
// exact label tier and, where that does not exceed the threshold, goes into
// a heap keyed by it. When such a key surfaces within the threshold, the
// tree gets the filter's full bound and goes back in, keyed by the larger
// of the two: its tightened key. When that surfaces within the threshold,
// the tree is handed out, its sequence tier is read, and it is verified
// only if that stays within the threshold too. No key is below the one it
// replaces, and at an equal key a level sorts ahead of a label key and that
// ahead of a tightened one, so a position is handed out only after every
// position with a smaller (tightened key, id) has been: verifications
// happen in the order a sort by tightened key would give, while a tree
// costs nothing past the tier whose key stopped it — above the last level
// read, no key and no heap slot. A level is gathered only when it is to be
// read, so the scan never pays for the level above the last one it reads.
// The funnel and EXPLAIN read the histograms and the records of each lazy
// tier.
type scan struct {
	cut   *qcut
	prims segBounders
	*scanBufs
	// fixed marks a range query, whose threshold stays at tau: its answer
	// is every distance within it, and EXPLAIN's exact full bound the range
	// bound at tau.
	fixed bool

	// pending holds the positions of the levels gathered but not yet
	// tightened, in (level, position) order; read is the lowest level not
	// yet gathered.
	pending []int32
	read    int
	// lazyTime is the time the refine stage spent on the lazy tiers:
	// gathering and tightening levels, the heap and the sequence tier —
	// the filter's work, done between verifications.
	lazyTime time.Duration
	canceled bool // the context ended while a level was being tightened
}

// labelled is a tree whose level was read: its position and its label
// key, the level raised to the exact label tier.
type labelled struct {
	pos, label int32
}

// bounded is a tree whose full bound was computed: its position, its label
// key and its tightened key, the larger of that and the full bound.
type bounded struct {
	pos, label, key int32
}

// handed is a tree whose tightened key surfaced within the threshold: its
// position, that key and its sequence tier, capped one above the threshold
// it was read at, or −1 when that was unbounded — the first k trees, whose
// verification searches for its own cutoff.
type handed struct {
	pos, key, seq int32
}

// tightened marks a heap key that includes the full bound.
const tightened = 1 << 32

// scanBufs is a scan's memory, pooled like the accumulator so that a
// scan allocates nothing per tree in the steady state. A query puts it
// back when it returns.
type scanBufs struct {
	// cheap[pos] is position pos's level, −1 for a tombstoned position.
	cheap []int32
	hist  tierCounts // the visible trees' counts
	dead  []int      // the tombstoned locals of a segment, or of a run of one
	// found, offs and sorted are gather's: the positions a pass found, the
	// counting sort's offsets and its output.
	found, offs, sorted []int32
	// heap holds the positions read but not yet handed out, keyed
	// bound<<33 | tightened<<32 | position: a label key has the tightened
	// bit clear, a tightened key set. labels records every tree whose level
	// was read, full every tree whose full bound was computed and handed
	// every tree handed out, with its sequence tier once it was read.
	heap   []uint64
	labels []labelled
	full   []bounded
	handed []handed
	// seq is the sequence tier's working memory.
	seq seqBuf
}

var scanPool sync.Pool

// getScanBufs returns the memory of a scan over n positions; like a new
// accumulator, a new one has room for a few more positions.
func getScanBufs(n int) *scanBufs {
	b, ok := scanPool.Get().(*scanBufs)
	if !ok {
		b = new(scanBufs)
	}
	if cap(b.cheap) < n {
		b.cheap = make([]int32, n, n+n/8)
	}
	b.cheap, b.hist = b.cheap[:n], b.hist[:0]
	b.heap, b.labels, b.full, b.handed = b.heap[:0], b.labels[:0], b.full[:0], b.handed[:0]
	return b
}

// tierCounts counts the visible trees per bound value for the three cheap
// tiers, interleaved: h[3v+bySize] by the size tier's bound,
// h[3v+byBDist] by the larger of it and the BDist tier's, h[3v+byLevel]
// by level. A level is the largest of the three, so one length check
// covers all three counts.
type tierCounts []int32

const (
	bySize = iota
	byBDist
	byLevel
)

// fit returns h with room for the counts of level.
func (h tierCounts) fit(level int) tierCounts {
	if n := 3*level + 3; n > len(h) {
		h = append(h, make([]int32, n-len(h))...)
	}
	return h
}

// levels returns one past the highest level counted.
func (h tierCounts) levels() int { return len(h) / 3 }

// at returns the trees whose bound in the tier is v.
func (h tierCounts) at(tier, v int) int { return int(h[3*v+tier]) }

// above returns the trees whose bound in the tier exceeds v.
func (h tierCounts) above(tier, v int) (n int) {
	for i := 3*(v+1) + tier; i < len(h); i += 3 {
		n += int(h[i])
	}
	return n
}

// filterPass computes every visible tree's cheap bounds into its level
// and the histograms, checking the context every ctxCheckEvery positions.
func (ix *Index) filterPass(ctx context.Context, cut *qcut, q *tree.Tree, acc []int32) (*scan, error) {
	bufs := getScanBufs(cut.n)
	sc := &scan{cut: cut, prims: newSegBounders(cut, q, acc, &bufs.dead), scanBufs: bufs}
	p := cheapPass{cut: cut, prims: sc.prims, h: bufs.hist, dead: bufs.dead}
	for at := 0; at < cut.n; at += ctxCheckEvery {
		if ctx.Err() != nil {
			scanPool.Put(bufs)
			return nil, ctx.Err()
		}
		end := min(at+ctxCheckEvery, cut.n)
		p.run(at, end, sc.cheap[at:end])
	}
	bufs.hist, bufs.dead = p.h, p.dead
	return sc, nil
}

// cheapPass is the filter pass's walk of the cheap tiers: it
// bounds runs of positions segment by segment, over each segment's columns
// (biBranchBounder.levels), and takes each run's tombstoned positions out
// once, off the sorted set, instead of probing it per position.
type cheapPass struct {
	cut   *qcut
	prims segBounders
	si    int        // the segment under the walk
	h     tierCounts // the visible trees' counts
	dead  []int      // the tombstoned locals of the run in hand
}

// run bounds positions [lo, hi) into h, writing each one's level to
// out[pos−lo] and −1 for a tombstoned one. Successive runs ascend.
func (p *cheapPass) run(lo, hi int, out []int32) {
	for pos := lo; pos < hi; {
		for pos >= p.cut.starts[p.si+1] {
			p.si++
		}
		start, end := p.cut.starts[p.si], min(hi, p.cut.starts[p.si+1])
		b := p.prims[p.si]
		p.dead = p.cut.tombs.Locals(p.cut.segs[p.si], pos-start, end-start, p.dead[:0])
		for _, d := range p.dead {
			p.bound(b, pos-start, d, out[pos-lo:])
			pos = start + d
			out[pos-lo] = -1
			pos++
		}
		p.bound(b, pos-start, end-start, out[pos-lo:])
		pos = end
	}
}

// bound bounds the visible locals [lo, hi) of bounder b's segment into h,
// writing their levels to out: all 0 under the sequential scan.
func (p *cheapPass) bound(b *biBranchBounder, lo, hi int, out []int32) {
	if b != nil {
		p.h = b.levels(lo, hi, out, p.h)
		return
	}
	clear(out[:hi-lo])
	p.h = p.h.fit(0)
	for tier := range 3 {
		p.h[tier] += int32(hi - lo)
	}
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

// push adds a key to the heap.
func (sc *scan) push(k uint64) {
	h := append(sc.heap, k)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sc.heap = h
}

// next hands out the position to verify next, in ascending (tightened key,
// id) order, reading levels and the full bound at the threshold t as their
// keys surface, and records it last in handed, whose sequence tier the
// caller reads (see sequence). It reports false once the smallest
// remaining key — the lowest unread level or the heap's top — exceeds t —
// keys only grow and the threshold only falls, so nothing left can enter
// the answer — no tree is left, or the context ended mid-level (canceled
// is then set).
func (sc *scan) next(ctx context.Context, t int) (pos, bound int, ok bool) {
	for !sc.canceled {
		if level := sc.lowest(); level >= 0 && level <= t && (len(sc.heap) == 0 || uint64(level) <= sc.heap[0]>>33) {
			sc.tighten(ctx, level, t)
			continue
		}
		if len(sc.heap) == 0 || int(sc.heap[0]>>33) > t {
			return 0, 0, false
		}
		top := sc.heap[0]
		pos, bound = int(uint32(top)), int(top>>33)
		if top&tightened == 0 {
			si, local, _ := sc.cut.locate(pos)
			// A k-NN threshold is unbounded until the heap holds k.
			key := sc.prims[si].Full(local, bound, min(t, math.MaxInt32))
			sc.full = append(sc.full, bounded{pos: int32(pos), label: int32(bound), key: int32(key)})
			sc.heap[0] = uint64(key)<<33 | tightened | uint64(pos)
			siftDown(sc.heap, 0)
			continue
		}
		last := len(sc.heap) - 1
		sc.heap[0] = sc.heap[last]
		sc.heap = sc.heap[:last]
		siftDown(sc.heap, 0)
		sc.handed = append(sc.handed, handed{pos: int32(pos), key: int32(bound), seq: -1})
		return pos, bound, true
	}
	return 0, 0, false
}

// sequence reads the sequence tier of the tree just handed out at
// position pos, capped one above the threshold t, into its handed record.
// It reports whether the tier stays within t, and so whether the tree is
// still worth verifying. Before a k-NN answer holds k trees nothing can be
// pruned and the tier is not read; the funnel reads it for those trees
// itself. After, and at a fixed threshold throughout, the cap is never
// below the final threshold, so the funnel can tell for every handed tree
// whether the tier exceeds it.
func (sc *scan) sequence(pos, t int) bool {
	if t == math.MaxInt {
		return true
	}
	si, local, _ := sc.cut.locate(pos)
	seq := sc.prims[si].Sequence(local, t, &sc.seq)
	sc.handed[len(sc.handed)-1].seq = int32(seq)
	return seq <= t
}

// lowest returns the lowest level with trees not yet tightened, −1 when
// every level has been read. It gathers nothing: a level's trees are
// gathered only when it is tightened.
func (sc *scan) lowest() int {
	if len(sc.pending) > 0 {
		return int(sc.cheap[sc.pending[0]])
	}
	top := sc.hist.levels()
	for sc.read < top && sc.hist.at(byLevel, sc.read) == 0 {
		sc.read++
	}
	if sc.read == top {
		return -1
	}
	return sc.read
}

// gather collects the positions of the lowest level not yet gathered,
// which lowest found to hold trees — with the next ones too while they all
// hold at most gatherChunk trees and lie within thresh, above which no
// level is ever read — into pending, in (level, position)
// order: one pass over the levels copies their positions out without a
// branch to mispredict — it writes every position and advances past those
// in range — and, when it took several levels, a counting sort by level,
// sized by the histogram, orders what it found.
func (sc *scan) gather(thresh int) {
	lo, top := sc.read, sc.hist.levels()
	hi, total := lo+1, sc.hist.at(byLevel, lo)
	for hi < top && hi <= thresh && total+sc.hist.at(byLevel, hi) <= gatherChunk {
		total += sc.hist.at(byLevel, hi)
		hi++
	}
	sc.read = hi
	// Locals, so the loops keep the slices in registers.
	found := slices.Grow(sc.found[:0], total+1)[:total+1]
	k, span := 0, uint32(hi-lo)
	for pos, c := range sc.cheap {
		found[k] = int32(pos)
		// A tombstoned position's −1 wraps past every span.
		if uint32(int(c)-lo) < span {
			k++
		}
	}
	sc.found, sc.pending = found, found[:total]
	if hi-lo == 1 {
		return
	}
	offs := slices.Grow(sc.offs[:0], hi-lo)[:hi-lo]
	at := 0
	for l := range offs {
		offs[l] = int32(at)
		at += sc.hist.at(byLevel, lo+l)
	}
	sorted := slices.Grow(sc.sorted[:0], total)[:total]
	for _, p := range found[:total] {
		l := int(sc.cheap[p]) - lo
		sorted[offs[l]] = p
		offs[l]++
	}
	sc.offs, sc.sorted, sc.pending = offs, sorted, sorted
}

// gatherChunk is how many trees of several levels one pass gathers at
// most. A pass over the levels costs about what sorting a thousand
// positions by level does, so a level of more trees takes a pass of its
// own.
const gatherChunk = 1024

// tighten gives every tree of the lowest unread level its label key,
// gathering it first if it is not pending yet, and pushes those within
// thresh onto the heap; the others can never be handed out.
func (sc *scan) tighten(ctx context.Context, level, thresh int) {
	if len(sc.pending) == 0 {
		sc.gather(thresh)
	}
	n := sc.hist.at(byLevel, level)
	for i, p := range sc.pending[:n] {
		if i%ctxCheckEvery == ctxCheckEvery-1 && ctx.Err() != nil {
			sc.canceled = true
			break
		}
		si, local, _ := sc.cut.locate(int(p))
		label := max(sc.prims[si].ExactLabel(local), level)
		sc.labels = append(sc.labels, labelled{pos: p, label: int32(label)})
		if label <= thresh {
			sc.push(uint64(label)<<33 | uint64(p))
		}
	}
	sc.pending = sc.pending[n:]
}

// funnel classifies every visible tree against the final threshold worst —
// tau, or the final k-th distance: pruned by the first tier whose bound
// exceeds it, or a candidate. The histograms count the trees a cheap tier
// prunes. Every lazy tier was read for every tree whose key under the
// tiers before it does not exceed worst, since the scan never stops below
// the threshold of the moment, which is never below worst: a tree of a
// level at most worst has its label key, one whose label key is at most
// worst its tightened key, and one whose tightened key is at most worst
// its sequence tier — read here, capped at worst, for a tree handed out
// before there was a threshold.
func (sc *scan) funnel(worst int) (candidates int, f Funnel) {
	size, bdist := sc.hist.above(bySize, worst), sc.hist.above(byBDist, worst)
	f.Size, f.BDist, f.Label = size, bdist-size, sc.hist.above(byLevel, worst)-bdist
	for _, t := range sc.labels {
		if int(sc.cheap[t.pos]) <= worst && int(t.label) > worst {
			f.Label++
		}
	}
	for _, b := range sc.full {
		if int(b.label) <= worst && int(b.key) > worst {
			f.Positional++
		}
	}
	for _, h := range sc.handed {
		if int(h.key) > worst {
			continue // counted with its tightened key
		}
		seq := int(h.seq)
		if seq < 0 {
			si, local, _ := sc.cut.locate(int(h.pos))
			seq = sc.prims[si].Sequence(local, worst, &sc.seq)
		}
		if seq > worst {
			f.Sequence++
		} else {
			candidates++
		}
	}
	return candidates, f
}

// decidingBounds returns every visible tree's deciding bound against the
// final threshold worst, as funnel classifies the tree: for a level above
// worst, the first cheap tier above it (see deciding); else its label key
// where that exceeds worst; else its tightened key, made exact where the
// scan stopped its search above the threshold of the moment. The scan
// read the label key of every tree whose level is at most worst and the
// tightened key of every tree whose label key is, so no bound depends on
// how fast a k-NN threshold fell.
func (sc *scan) decidingBounds(worst int) []int {
	bounds := make([]int, 0, sc.cut.live)
	for _, t := range sc.labels {
		if int(sc.cheap[t.pos]) <= worst && int(t.label) > worst {
			bounds = append(bounds, int(t.label))
		}
	}
	for _, b := range sc.full {
		if int(b.label) > worst {
			continue
		}
		key := int(b.key)
		if key > worst {
			// The scan stopped the positional search past the threshold
			// of its moment; the few trees it stood down get the full
			// bound exact.
			si, local, _ := sc.cut.locate(int(b.pos))
			full := sc.prims[si].KNNBound(local)
			if sc.fixed {
				full = sc.prims[si].RangeBound(local, worst)
			}
			key = max(full, int(b.label))
		}
		bounds = append(bounds, key)
	}
	for si, b := range sc.prims {
		start := sc.cut.starts[si]
		for pos := start; pos < sc.cut.starts[si+1]; pos++ {
			if int(sc.cheap[pos]) > worst {
				bounds = append(bounds, deciding(b, pos-start, worst))
			}
		}
	}
	return bounds
}

// deciding returns the cheap tier that stands tree i of bounder b's
// segment down at worst: the first of its size, BDist and swept label
// tiers above worst, exact.
func deciding(b *biBranchBounder, i, worst int) int {
	size, bdist, label := b.swept(i)
	switch {
	case size > worst:
		return size
	case bdist > worst:
		return bdist
	}
	return label
}

// verifier is the refine stage's verification kernel: both query kinds
// funnel their exact-distance computations through it, so the
// bounded-verification logic — live cutoff, pre-checks, early abandoning,
// DP-cell accounting — lives in exactly one place. Each verification gets
// the threshold a distance must not exceed to matter for the answer: τ for
// range queries, the current k-th-best for k-NN — none, until k distances
// are known, in which case Query.Within searches for a cutoff itself and
// its cells count every run it takes.
type verifier struct {
	cut *qcut
	q   *editdist.Query

	verified, aborted, prechecked, certified int
	dpCells, dpCellsFull                     int64
}

// newVerifier prepares the query once for every verification of the
// request.
func (ix *Index) newVerifier(cut *qcut, q *tree.Tree) *verifier {
	return &verifier{cut: cut, q: editdist.Prepare(q, editdist.WithCost(ix.cost))}
}

// verify computes the edit distance between the query and the tree at
// global position pos under cutoff. within reports whether d is the exact
// distance (it was ≤ cutoff); when false, d is only a certified lower
// bound — the tree is provably too far to matter, which is all the engine
// needs.
func (v *verifier) verify(pos, cutoff int) (si, local, gid, d int, within bool) {
	si, local, gid = v.cut.locate(pos)
	t := v.cut.treeOf(si, local)
	v.verified++
	var m editdist.Metrics
	d, within = v.q.Within(t, cutoff, &m)
	if m.Certified {
		v.certified++
	}
	if !within {
		if m.Precheck {
			v.prechecked++
		} else {
			v.aborted++
		}
	}
	v.dpCells += m.Cells
	v.dpCellsFull += m.FullCells
	return si, local, gid, d, within
}

// finish copies the verifier's counters into the query stats and the
// refine span. dp_cells is the dynamic-programming work the refine stage
// actually paid; dp_cells_full is what full verification of the same
// pairs would have cost — the paper's accessed-fraction measure, made
// cell-exact; certified counts the exact answers that paid none.
func (v *verifier) finish(stats *Stats, rspan *obs.Span) {
	stats.Verified = v.verified
	stats.RefineAborted = v.aborted
	stats.PrecheckRejects = v.prechecked
	stats.Certified = v.certified
	stats.DPCells = v.dpCells
	stats.DPCellsFull = v.dpCellsFull
	rspan.SetInt("dp_cells", stats.DPCells)
	rspan.SetInt("dp_cells_full", stats.DPCellsFull)
	rspan.SetInt("aborted", int64(stats.RefineAborted))
	rspan.SetInt("precheck_rejects", int64(stats.PrecheckRejects))
	rspan.SetInt("certified", int64(stats.Certified))
}

// refine verifies candidates in ascending-bound order from a threshold of
// thresh: tau for a range query, which appends every distance within it to
// the answer, or, for a k-NN query, none, which maintains the k-minimal
// (dist, id) heap and lowers the threshold to its k-th distance. It draws
// positions from the scan until the scan reports that the smallest
// remaining bound is above the threshold: everything not yet handed out
// bounds at least as high and cannot enter the answer.
//
// The same threshold is the bounded verifier's cutoff: a candidate enters
// the heap only with d < top.Dist, or d == top.Dist on an id tie-break, so
// a distance proven > thresh can never change the answer. While the heap
// is short the threshold is MaxInt, so every verification is exact, and
// Query.Within finds each such distance by its doubling search over
// banded runs rather than the band-off program.
func (ix *Index) refine(ctx context.Context, cut *qcut, q *tree.Tree, k, thresh int, sc *scan, stats *Stats, ex *Explain, rspan *obs.Span) ([]Result, error) {
	h := &maxHeap{}
	ver := ix.newVerifier(cut, q)
	canceled := false
	for {
		t0 := time.Now()
		pos, bound, ok := sc.next(ctx, thresh)
		pass := ok && sc.sequence(pos, thresh)
		sc.lazyTime += time.Since(t0)
		if !ok {
			break
		}
		// A verification can cost milliseconds, so check the context
		// before every one.
		if ctx.Err() != nil {
			canceled = true
			break
		}
		if !pass {
			continue
		}
		si, local, gid, d, within := ver.verify(pos, thresh)
		if !within {
			continue
		}
		sampleTightness(sc.prims[si], stats, ex, local, gid, bound, d)
		switch {
		case sc.fixed:
			// The answer, in no order until the sort below.
			h.items = append(h.items, Result{ID: gid, Dist: d})
		case h.Len() < k:
			heap.Push(h, Result{ID: gid, Dist: d})
			if h.Len() == k {
				thresh = h.top().Dist
			}
		case d < h.top().Dist || (d == h.top().Dist && gid < h.top().ID):
			h.items[0] = Result{ID: gid, Dist: d}
			heap.Fix(h, 0)
			thresh = h.top().Dist
		}
	}
	ver.finish(stats, rspan)
	if canceled || sc.canceled {
		return nil, ctx.Err()
	}

	sortResults(h.items)
	return h.items, nil
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
