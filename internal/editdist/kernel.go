package editdist

import "sync"

// kernel is the package's one Zhang–Shasha program: Distance,
// DistanceWithin and EditScriptCost run it with different cutoffs and bands
// (bounded.go says what the band is and why it is sound). td and fd
// are flat row-major (|T1|+1)×(|T2|+1) tables of stride w over 1-based
// postorder indices, pooled with the per-pair cost arrays, so a
// verification allocates nothing once the pool is warm.
type kernel struct {
	a, b     *decomp
	cost     CostModel
	unit     bool // UnitCost: relabel compares the decomps' label ids, no interface call
	cutoff   int
	band     int   // cutoff / MinOpCost, or |T1|+|T2| for no restriction
	dlo, dhi int   // the range of δ = lml(i) − lml(j), and of x − y, that the band admits
	w        int   // row stride of td and fd
	cells    int64 // interior forest-distance cells filled so far

	td, fd       []int // td[x*w+y], fd[x*w+y]
	dcost, icost []int // Delete / Insert cost per node, ≤ unreachable
	keyAt        []int // keyAt[l]: T2's keyroot whose leftmost leaf is l, or 0
}

// kernelPool recycles kernels; one whose tables exceed maxPooledCells (a
// pair beyond ≈500×500 nodes) is left to the collector, not pinned here.
var kernelPool sync.Pool

const maxPooledCells = 1 << 18

// newKernel prepares a pooled kernel for one pair — a and b labelled by
// one Query's slots (decomp.id) — filling costs once so the cell loop
// never calls Insert or Delete, and giving td the sentinel wherever a
// subproblem may read it: a cell reads td at its own coordinates, and
// cells obey |x−y| + |(|T1|−|T2|) − (x−y)| ≤ band (at most bounded.go's
// region count), so dlo ≤ x−y ≤ dhi.
func newKernel(a, b *decomp, c CostModel, cutoff, band int) *kernel {
	k, _ := kernelPool.Get().(*kernel)
	if k == nil {
		k = new(kernel)
	}
	k.a, k.b, k.cost, k.cutoff, k.band, k.cells = a, b, c, cutoff, band, 0
	k.dlo, k.dhi = -((band - a.n + b.n) >> 1), (a.n-b.n+band)>>1
	if abs(a.n-b.n) > band {
		k.dhi = k.dlo - 1 // the sizes alone exceed the band: no cell is admissible
	}
	k.w = b.n + 1
	size := (a.n + 1) * k.w
	k.td, k.fd = grow(k.td, size), grow(k.fd, size)
	k.dcost, k.icost = grow(k.dcost, a.n+1), grow(k.icost, b.n+1)
	for x := 1; x <= a.n; x++ {
		k.dcost[x] = min(c.Delete(a.label[x]), unreachable)
	}
	for y := 1; y <= b.n; y++ {
		k.icost[y] = min(c.Insert(b.label[y]), unreachable)
	}
	_, k.unit = c.(UnitCost)
	k.keyAt = grow(k.keyAt, b.n+1)
	clear(k.keyAt)
	for _, j := range b.keyroots {
		k.keyAt[b.lml[j]] = j
	}
	for x := 1; x <= a.n; x++ {
		for y := max(1, x-k.dhi); y <= min(b.n, x-k.dlo); y++ {
			k.td[x*k.w+y] = unreachable
		}
	}
	k.td[size-1] = unreachable // the answer cell, whatever the band
	return k
}

// release pools the kernel without the trees and, above the cap, not at all.
func (k *kernel) release() {
	k.a, k.b, k.cost = nil, nil, nil
	if cap(k.td) <= maxPooledCells {
		kernelPool.Put(k)
	}
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// run solves every keyroot subproblem the band admits and returns the root
// cell: the exact distance when ≤ cutoff, otherwise only a witness that the
// distance exceeds it (possibly the unreachable sentinel). Keyroots have
// distinct leftmost leaves, so for each i it visits only the admissible
// lj = lml(j), through keyAt, and in descending order: a keyroot inside
// subtree(j) off j's leftmost path has a larger leftmost leaf, and (i, j)
// reads the tree distances it writes.
func (k *kernel) run() int {
	for _, i := range k.a.keyroots {
		li := k.a.lml[i]
		for lj := min(k.b.n, li-k.dlo); lj >= max(1, li-k.dhi); lj-- {
			if j := k.keyAt[lj]; j != 0 {
				treeDist(k, i, j)
			}
		}
	}
	return k.td[len(k.td)-1]
}

// treeDist fills the in-window cells of keyroot subproblem (i, j) — fd for
// the forest prefixes, td[x][y] where x and y lie on the leftmost paths of
// i and j — and abandons it once a whole frontier row exceeds the cutoff.
// The window is the offsets o = (x−li) − (y−lj) with |o| + |c−o| ≤
// band − |δ|, where δ = li − lj and c = (|T1|−|T2|) − δ: bounded.go's
// region count, the prefixes' and the after regions' share of it. That is
// one interval [olo, ohi] ∋ 0, so row x's cells are a run [lo, hi] sliding
// right by one per row, and a cell's only neighbours outside it are the one
// left of lo and the one above hi. Both get the sentinel up front; that
// leaves one band test in the loop, for the jump to (lml(x)−1, lml(y)−1).
// Every stored value is clamped to the sentinel, so sums of two stay far
// from overflow.
func treeDist(k *kernel, i, j int) {
	a, b := k.a, k.b
	li, lj := a.lml[i], b.lml[j]
	r, c := k.band-abs(li-lj), a.n-b.n-li+lj
	olo, ohi := -((r - c) >> 1), (c+r)>>1
	w, fd, td, icost, blml, aid, bid := k.w, k.fd, k.td, k.icost, b.lml, a.id, b.id
	// Row li−1: the empty prefix of T1 against prefixes of T2 — inserts.
	row := (li - 1) * w
	hi := min(j, lj-1-olo)
	fd[row+lj-1] = 0
	for y := lj; y <= hi; y++ {
		fd[row+y] = min(fd[row+y-1]+icost[y], unreachable)
	}
	if hi < j {
		fd[row+hi+1] = unreachable
	}
	// Past row li+(j−lj)+ohi the window has slid beyond column j.
	for x, end := li, min(i, li+j-lj+ohi); x <= end; x++ {
		prev := row
		row += w
		lo, hi := x-li+lj-ohi, min(j, x-li+lj-olo)
		dc, rowMin := k.dcost[x], unreachable
		if lo < lj {
			// Column lj−1, the empty prefix of T2 (deletes), is in the window.
			lo = lj
			rowMin = min(fd[prev+lj-1]+dc, unreachable)
			fd[row+lj-1] = rowMin
		} else {
			fd[row+lo-1] = unreachable
		}
		if hi < j {
			fd[row+hi+1] = unreachable
		}
		// The jump cell (lx−1, l−1) is in the window iff qlo ≤ l ≤ qhi.
		lx := a.lml[x]
		spine, jump := lx == li, (lx-1)*w-1
		qlo, qhi := lx-li+lj-ohi, lx-li+lj-olo
		left := fd[row+lo-1]
		for y := lo; y <= hi; y++ {
			v := min(fd[prev+y]+dc, left+icost[y])
			if l := blml[y]; spine && l == lj {
				// Both prefixes are whole subtrees: also a tree distance.
				rel := 0
				if !k.unit {
					rel = min(k.cost.Relabel(a.label[x], b.label[y]), unreachable)
				} else if aid[x] != bid[y] {
					rel = 1
				}
				v = min(v, fd[prev+y-1]+rel, unreachable)
				td[row+y] = v
			} else {
				if qlo <= l && l <= qhi {
					v = min(v, fd[jump+l]+td[row+y])
				}
				v = min(v, unreachable)
			}
			fd[row+y] = v
			left = v
			rowMin = min(rowMin, v)
		}
		k.cells += int64(hi - lo + 1)
		if rowMin > k.cutoff {
			return
		}
	}
}
