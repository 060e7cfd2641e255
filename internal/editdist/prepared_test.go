package editdist

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"treesim/internal/dblp"
	"treesim/internal/tree"
)

// refDecompose is the recursive decomposition the iterative one replaced,
// keyroots taken as the largest postorder index of each leftmost-leaf
// value through a map.
func refDecompose(t *tree.Tree) *decomp {
	d := &decomp{label: []string{""}, lml: []int{0}}
	if t.IsEmpty() {
		return d
	}
	var rec func(n *tree.Node) int
	rec = func(n *tree.Node) int {
		first := 0
		for k, ch := range n.Children {
			idx := rec(ch)
			if k == 0 {
				first = d.lml[idx]
			}
		}
		d.n++
		d.label = append(d.label, n.Label)
		if len(n.Children) == 0 {
			d.lml = append(d.lml, d.n)
		} else {
			d.lml = append(d.lml, first)
		}
		return d.n
	}
	rec(t.Root)
	last := make(map[int]int, d.n)
	for i := 1; i <= d.n; i++ {
		last[d.lml[i]] = i
	}
	for i := 1; i <= d.n; i++ {
		if last[d.lml[i]] == i {
			d.keyroots = append(d.keyroots, i)
		}
	}
	return d
}

// refPrecheckBound is the pre-check as a per-pair computation over both
// decompositions: heights from tree.Height and a label-count map.
func refPrecheckBound(t1, t2 *tree.Tree, a, b *decomp, cmin int) int {
	lb := max(abs(a.n-b.n), abs(t1.Height()-t2.Height()))
	counts := make(map[string]int, a.n)
	for i := 1; i <= a.n; i++ {
		counts[a.label[i]]++
	}
	for j := 1; j <= b.n; j++ {
		counts[b.label[j]]--
	}
	l1 := 0
	for _, v := range counts {
		l1 += abs(v)
	}
	lb = max(lb, (l1+1)/2)
	if lb > 0 && cmin > unreachable/lb {
		return unreachable
	}
	return cmin * lb
}

// refFullCells sums the keyroot subforest sizes of both decompositions.
func refFullCells(a, b *decomp) int64 {
	var sa, sb int64
	for _, i := range a.keyroots {
		sa += int64(i - a.lml[i] + 1)
	}
	for _, j := range b.keyroots {
		sb += int64(j - b.lml[j] + 1)
	}
	return sa * sb
}

// refWithin is the verifier as a per-pair pipeline — both trees
// decomposed, the reference pre-check and FullCells, labels interned for
// the pair — around the same kernel: what DistanceWithin computed before
// queries were prepared. A bounded call with a per-operation minimum
// rejects, as a pre-check, a pair whose postorder or preorder label
// sequences are further apart (by the unbanded StringDistance) than the
// band. With no cutoff it is the doubling search as a loop of its own
// bounded calls, seeded by the larger of those two distances, then the
// band-off run.
func refWithin(t1, t2 *tree.Tree, cutoff int, c CostModel) (int, bool, Metrics) {
	a, b := refDecompose(t1), refDecompose(t2)
	m := Metrics{FullCells: refFullCells(a, b)}
	switch {
	case a.n == 0 || b.n == 0:
		d := a.totalCost(c.Delete) + b.totalCost(c.Insert)
		return d, d <= cutoff, m
	case cutoff < 0:
		m.Precheck = true
		return 0, false, m
	}
	band := a.n + b.n
	if cmin := MinOpCost(c); cmin >= 1 {
		lb := refPrecheckBound(t1, t2, a, b, cmin)
		if lb > cutoff {
			m.Precheck = true
			return lb, false, m
		}
		post, pre := refSeqBound(t1, t2)
		if cutoff < unreachable {
			band = min(band, cutoff/cmin)
			if max(post, pre) > band {
				m.Precheck = true
				return cutoff + 1, false, m
			}
		} else if top := band / searchSpan; max(1, lb/cmin) <= top && cmin <= unreachable/(top+1) {
			for k := max(1, lb/cmin, min(max(post, pre), top+1)); k <= top; k = min(2*k, top) {
				d, ok, tm := refWithin(t1, t2, (k+1)*cmin-1, c)
				m.Cells += tm.Cells
				if ok {
					return d, true, m
				}
				if k == top {
					break
				}
			}
		}
	}
	ids := map[string]int32{}
	for _, d := range []*decomp{a, b} {
		d.id = make([]int32, d.n+1)
		for i := 1; i <= d.n; i++ {
			id, ok := ids[d.label[i]]
			if !ok {
				id = int32(len(ids))
				ids[d.label[i]] = id
			}
			d.id[i] = id
		}
	}
	k := newKernel(a, b, c, cutoff, band)
	d := k.run()
	m.Cells += k.cells
	k.release()
	if d > cutoff {
		m.Aborted = true
		return cutoff + 1, false, m
	}
	return d, true, m
}

// TestWithinMatchesReference: one Query per (query tree, cost model),
// reused against every tree of a mixed workload — DBLP records, refine-
// sized random pairs, within-cluster range_scan pairs, degenerate shapes,
// a mirrored single-label pair only the DP tells apart, and the empty
// tree — in shuffled order at every cutoff, gives the reference
// pipeline's (d, ok, Metrics) exactly; and the iterative decomposition
// equals the recursive one on every tree, its preorder indices putting the
// labels in preorder.
func TestWithinMatchesReference(t *testing.T) {
	trees := dblp.New(3).Dataset(150)
	for _, p := range append(benchPairs(12), clusterPairs(t, midSpec, 7, 3)...) {
		trees = append(trees, p[0], p[1])
	}
	trees = append(trees, chain(9, fuzzLabels), star(9, fuzzLabels), leftHeavy(11), tree.New(nil))
	queries := []*tree.Tree{trees[0], trees[97], trees[150], trees[len(trees)-7], trees[len(trees)-4], tree.New(nil)}
	m1, m2 := mirrored(2)
	trees, queries = append(trees, m1, m2), append(queries, m1)
	for _, tr := range trees {
		got, want := decompose(tr), refDecompose(tr)
		if got.n != want.n || !slices.Equal(got.label, want.label) ||
			!slices.Equal(got.lml, want.lml) || !slices.Equal(got.keyroots, want.keyroots) {
			t.Fatalf("decompose(%q) = %+v, reference %+v", tr, got, want)
		}
		pre := make([]string, got.n+1)
		for i := 1; i <= got.n; i++ {
			pre[got.pre[i]] = got.label[i]
		}
		if want := labelsOf(tr.PreOrder()); !slices.Equal(pre[1:], want) {
			t.Fatalf("decompose(%q) preorder labels %q, want %q", tr, pre[1:], want)
		}
	}
	cutoffs := []int{-1, 0, 2, 4, 6, math.MaxInt}
	rng := rand.New(rand.NewSource(5))
	pairs, aborts := 0, 0
	for _, c := range bandModels(1) {
		for _, qt := range queries {
			q := Prepare(qt, WithCost(c))
			for _, o := range rng.Perm(len(trees) * len(cutoffs)) {
				tt, cutoff := trees[o/len(cutoffs)], cutoffs[o%len(cutoffs)]
				var m Metrics
				d, ok := q.Within(tt, cutoff, &m)
				wd, wok, wm := refWithin(qt, tt, cutoff, c)
				if d != wd || ok != wok || m != wm {
					t.Fatalf("%T: Query(%q).Within(%q, %d) = (%d, %v, %+v), reference (%d, %v, %+v)",
						c, qt, tt, cutoff, d, ok, m, wd, wok, wm)
				}
				pairs++
				if m.Aborted && MinOpCost(c) >= 1 {
					aborts++
				}
			}
		}
	}
	if aborts == 0 {
		t.Error("no DP abort under a model with a per-operation minimum: the reference's abort path went unchecked")
	}
	t.Logf("%d (query, tree, cutoff, model) cases, %d banded DP aborts", pairs, aborts)
}

// TestPostorderDist: the banded sequence bound is the unbanded
// StringDistance of the postorder labels, and of the preorder labels,
// capped at k+1, for every k up to past it — on pairs whose labels the
// query lacks too, on the empty tree, and on small trees over two labels,
// whose sequences share long runs.
func TestPostorderDist(t *testing.T) {
	trees := []*tree.Tree{chain(9, fuzzLabels), star(9, fuzzLabels), leftHeavy(11), rightHeavy(8),
		tree.MustParse("x(y,a(z))"), tree.MustParse("a(b(c),d(e,f))"), tree.New(nil)}
	for _, p := range benchPairs(6) {
		trees = append(trees, p[0], p[1])
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 12; i++ {
		trees = append(trees, smallRandomTree(rng, 10, []string{"a", "b"}))
	}
	s := new(scratch)
	for _, t1 := range trees {
		q := Prepare(t1)
		for _, t2 := range trees {
			post, pre := refSeqBound(t1, t2)
			b := s.decompose(t2, q)
			for _, c := range []struct {
				order string
				a, b  []int32
				want  int
			}{{"postorder", q.d.id[1:], b.id[1:], post}, {"preorder", q.d.preid[1:], b.preid[1:], pre}} {
				for k := 0; k <= c.want+2; k++ {
					if got := s.seqDist(c.a, c.b, k); got != min(c.want, k+1) {
						t.Fatalf("%s seqDist(%q, %q, %d) = %d, want %d", c.order, t1, t2, k, got, min(c.want, k+1))
					}
				}
			}
		}
	}
}

// TestWithinZeroAllocs: a prepared query allocates nothing per candidate
// once the pools are warm — neither for a pair the pre-checks reject nor
// for one the kernel decides nor for one the search answers with no
// cutoff, with or without a Metrics sink.
func TestWithinZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	recs := dblp.New(1).Dataset(300)
	q := Prepare(recs[0])
	var rejected, survivor *tree.Tree
	for _, r := range recs[1:] {
		var m Metrics
		q.Within(r, 4, &m)
		switch {
		case m.Precheck && rejected == nil:
			rejected = r
		case m.Cells > 0 && survivor == nil:
			survivor = r
		}
	}
	if rejected == nil || survivor == nil {
		t.Fatalf("workload has no rejected (%v) or surviving (%v) candidate", rejected, survivor)
	}
	for _, c := range []struct {
		name   string
		t      *tree.Tree
		cutoff int
	}{{"rejected", rejected, 4}, {"survivor", survivor, 4}, {"searched", survivor, noCutoff}} {
		var m Metrics
		for _, sink := range []*Metrics{&m, nil} {
			run := func() { q.Within(c.t, c.cutoff, sink) }
			run()
			if n := testing.AllocsPerRun(50, run); n != 0 {
				t.Errorf("%s (sink %v): %v allocations per Within, want 0", c.name, sink != nil, n)
			}
		}
	}
}

// TestPrepareHugeChain: preparing a 10⁵-node chain and walking a candidate
// against it keep their own stacks, so with the goroutine stack capped at
// 1 MiB — where recursing 10⁵ levels deep kills the process — the size
// pre-check still rejects a 10-node chain, and nothing that large is
// pooled.
func TestPrepareHugeChain(t *testing.T) {
	const n = 100_000
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	nodes, ptrs := make([]tree.Node, n), make([]*tree.Node, n)
	for i := range nodes {
		nodes[i].Label, ptrs[i] = "n", &nodes[i]
	}
	for i := range nodes {
		nodes[i].Children = ptrs[i+1 : min(i+2, n)]
	}
	q := Prepare(tree.New(&nodes[0]))
	if q.d.n != n || q.height != n || len(q.d.keyroots) != 1 || q.keys != n {
		t.Fatalf("prepared chain: %d nodes, height %d, %d keyroots, keyroot sizes %d",
			q.d.n, q.height, len(q.d.keyroots), q.keys)
	}
	var m Metrics
	d, ok := q.Within(chain(10, []string{"n"}), 5, &m)
	if ok || d != n-10 || !m.Precheck || m.Cells != 0 || m.FullCells != 10*n {
		t.Fatalf("chain vs 10-node chain at cutoff 5: (%d, %v, %+v), want (%d, false) by pre-check, FullCells %d",
			d, ok, m, n-10, 10*n)
	}
	if s := scratchPool.Get().(*scratch); cap(s.stack) > maxPooledNodes || cap(s.t.label) > maxPooledNodes {
		t.Fatalf("a scratch of %d frames / %d labels was pooled, cap is %d", cap(s.stack), cap(s.t.label), maxPooledNodes)
	}
}
