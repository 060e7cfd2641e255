package editdist

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/dblp"
	"treesim/internal/tree"
)

// checkWithin asserts the DistanceWithin contract for one (pair, cutoff):
// agreement with the band-off program's distance when within, a certified
// lower bound otherwise. On the way it holds Distance, the doubling search,
// to the same distance and to its accounting (checkSearch).
func checkWithin(t *testing.T, t1, t2 *tree.Tree, cutoff int, opts ...Option) {
	t.Helper()
	c := applyOptions(opts).cost
	full := EditScriptCost(t1, t2, c).Cost
	checkSearch(t, t1, t2, c, full)
	checkWithinRef(t, t1, t2, cutoff, full, opts...)
}

// checkSearch asserts the no-cutoff contract against the band-off
// program's distance full: Distance returns it exactly, flags neither a
// pre-check nor an abort, and counts at most searchCells worth of cells —
// under a model without a per-operation minimum, which runs the band-off
// program once, exactly the closed-form FullCells.
func checkSearch(t *testing.T, t1, t2 *tree.Tree, c CostModel, full int) {
	t.Helper()
	var m Metrics
	d := Distance(t1, t2, WithCost(c), WithMetrics(&m))
	limit := m.FullCells
	if MinOpCost(c) >= 1 {
		limit = searchCells(t1.Size()+t2.Size(), m.FullCells)
	}
	if d != full || m.Precheck || m.Aborted || m.Cells > limit ||
		(MinOpCost(c) == 0 && m.Cells != m.FullCells) {
		t.Fatalf("%T: Distance(%q,%q) = %d with %+v; band-off program %d, cells at most %d",
			c, t1, t2, d, m, full, limit)
	}
}

// searchCells is the Metrics.Cells bound of options.go for a no-cutoff
// call on trees of n nodes together: one banded run per doubling below band
// n/searchSpan and one at it, none counting more than FullCells, then the
// band-off run.
func searchCells(n int, fullCells int64) int64 {
	return int64(bits.Len(uint(n/searchSpan))+2) * fullCells
}

// checkWithinRef is checkWithin against a reference distance computed by
// the caller.
func checkWithinRef(t *testing.T, t1, t2 *tree.Tree, cutoff, full int, opts ...Option) {
	t.Helper()
	zeroKernelPool()
	d, ok := DistanceWithin(t1, t2, cutoff, opts...)
	checkVerdict(t, t1, t2, cutoff, full, d, ok)
}

// zeroKernelPool zeroes the pooled tables: a cell a call reads without
// having written or initialised it then shows as an underestimate instead
// of hiding behind a plausible value left by the previous pair.
func zeroKernelPool() {
	if k, _ := kernelPool.Get().(*kernel); k != nil {
		clear(k.td[:cap(k.td)])
		clear(k.fd[:cap(k.fd)])
		kernelPool.Put(k)
	}
}

// checkVerdict asserts DistanceWithin's contract on one answer (d, ok) for
// a pair at the given cutoff whose true distance is full.
func checkVerdict(t *testing.T, t1, t2 *tree.Tree, cutoff, full, d int, ok bool) {
	t.Helper()
	if full <= cutoff {
		if !ok || d != full {
			t.Fatalf("DistanceWithin(%q,%q,%d) = (%d,%v), want (%d,true)",
				t1, t2, cutoff, d, ok, full)
		}
	} else {
		if ok {
			t.Fatalf("DistanceWithin(%q,%q,%d) = (%d,true), but full distance is %d",
				t1, t2, cutoff, d, full)
		}
		if d <= cutoff || d > full {
			t.Fatalf("DistanceWithin(%q,%q,%d) lower bound %d outside (%d,%d]",
				t1, t2, cutoff, d, cutoff, full)
		}
	}
}

// TestDistanceWithinAgainstBruteForce: on small random trees, exhaustively
// sweep cutoffs around the brute-force distance and check the bounded
// program lands on the right side every time, under unit costs.
func TestDistanceWithinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		t1 := smallRandomTree(rng, 7, alphabet)
		t2 := smallRandomTree(rng, 7, alphabet)
		bf := BruteForce(t1, t2, UnitCost{})
		if full := EditScript(t1, t2).Cost; full != bf {
			t.Fatalf("trial %d: band-off distance(%q,%q) = %d, brute force = %d", trial, t1, t2, full, bf)
		}
		for cutoff := 0; cutoff <= bf+3; cutoff++ {
			checkWithin(t, t1, t2, cutoff)
		}
	}
}

// bandedWeighted is a non-unit model that reports its per-operation
// minimum, unlocking the pre-checks and the diagonal band.
type bandedWeighted struct{ weighted }

func (w bandedWeighted) MinOpCost() int {
	m := w.rel
	if w.ins < m {
		m = w.ins
	}
	if w.del < m {
		m = w.del
	}
	return m
}

// TestDistanceWithinCustomCosts repeats the brute-force sweep under two
// non-unit models: one opaque (frontier abandoning only) and one
// reporting MinOpCost (pre-checks + band).
func TestDistanceWithinCustomCosts(t *testing.T) {
	models := []CostModel{
		weighted{rel: 3, ins: 2, del: 5},
		bandedWeighted{weighted{rel: 3, ins: 2, del: 5}},
	}
	for mi, c := range models {
		rng := rand.New(rand.NewSource(int64(100 + mi)))
		alphabet := []string{"a", "b"}
		for trial := 0; trial < 100; trial++ {
			t1 := smallRandomTree(rng, 6, alphabet)
			t2 := smallRandomTree(rng, 6, alphabet)
			bf := BruteForce(t1, t2, c)
			for cutoff := 0; cutoff <= bf+4; cutoff += 1 + cutoff/3 {
				checkWithin(t, t1, t2, cutoff, WithCost(c))
			}
		}
	}
}

// TestDistanceWithinRandomDatasets: dataset-scale random pairs (the sizes
// the search engine actually verifies), cutoffs spread from far below to
// above the true distance.
func TestDistanceWithinRandomDatasets(t *testing.T) {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 24, SizeStd: 8, Labels: 5, Decay: 0.1}
	ts := datagen.New(spec, 17).Dataset(40, 5)
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 120; trial++ {
		t1 := ts[rng.Intn(len(ts))]
		t2 := ts[rng.Intn(len(ts))]
		full := EditScript(t1, t2).Cost
		for _, cutoff := range []int{0, 1, full / 2, full - 1, full, full + 1, full + 10} {
			if cutoff < 0 {
				continue
			}
			checkWithin(t, t1, t2, cutoff)
		}
	}
}

// chain builds a deep/skinny tree: a single path of depth n.
func chain(n int, labels []string) *tree.Tree {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(labels[i%len(labels)])
		if i < n-1 {
			b.WriteByte('(')
		}
	}
	b.WriteString(strings.Repeat(")", n-1))
	return tree.MustParse(b.String())
}

// star builds a wide/flat tree: a root with n-1 leaves.
func star(n int, labels []string) *tree.Tree {
	leaves := make([]string, n-1)
	for i := range leaves {
		leaves[i] = labels[i%len(labels)]
	}
	return tree.MustParse(fmt.Sprintf("%s(%s)", labels[0], strings.Join(leaves, ",")))
}

// TestDistanceWithinAdversarialShapes: deep/skinny and wide/flat trees are
// RTED's motivating cases where Zhang–Shasha's decomposition degenerates;
// the bounded program must stay exact there, and the pre-checks must
// reject chain-vs-star pairs (huge height delta) without any DP.
func TestDistanceWithinAdversarialShapes(t *testing.T) {
	labels := []string{"a", "b", "c"}
	shapes := []*tree.Tree{
		chain(17, labels), chain(18, []string{"b", "c"}),
		star(17, labels), star(19, []string{"c", "a"}),
		tree.MustParse("a(b(c(d,e),f),g(h))"),
	}
	for _, t1 := range shapes {
		for _, t2 := range shapes {
			full := EditScript(t1, t2).Cost
			for _, cutoff := range []int{0, 2, full - 1, full, full + 1} {
				if cutoff < 0 {
					continue
				}
				checkWithin(t, t1, t2, cutoff)
			}
		}
	}
	// Chain vs star: heights 17 vs 2, so any cutoff < 15 must be decided
	// by the height pre-check alone.
	var m Metrics
	d, ok := DistanceWithin(chain(17, labels), star(17, labels), 10, WithMetrics(&m))
	if ok || !m.Precheck || m.Cells != 0 {
		t.Fatalf("chain-vs-star: got (%d,%v) precheck=%v cells=%d, want precheck rejection with 0 cells",
			d, ok, m.Precheck, m.Cells)
	}
	if d <= 10 {
		t.Fatalf("chain-vs-star: lower bound %d not above the cutoff", d)
	}
}

// TestSearchIgnoresUncertifiedRuns: on this pair the search's first
// banded run, at band and cutoff 2, returns 5 — more than its cutoff, and
// more than the distance, 4. Only a certified value may be returned, so
// the search must go on to the band-off run and answer 4.
func TestSearchIgnoresUncertifiedRuns(t *testing.T) {
	t1, t2 := tree.MustParse("a(a(a(a),a(a),a))"), tree.MustParse("a(a,a(a),a(a),c,a(b))")
	q := Prepare(t1)
	b := new(scratch).decompose(t2, q)
	if d := q.run(b, 2, 2, new(Metrics)); d != 5 {
		t.Fatalf("banded run at cutoff 2 = %d, want the overshoot 5", d)
	}
	checkSearch(t, t1, t2, UnitCost{}, 4)
}

// chainOf builds a single path carrying exactly the given labels, root
// to leaf.
func chainOf(labels []string) *tree.Tree {
	return tree.MustParse(strings.Join(labels, "(") + strings.Repeat(")", len(labels)-1))
}

// mirrored returns a single-label tree and its mirror image: a(a(a),a)
// against a(a,a(a)), each nested wrap times as the middle child of
// a(a,·,a). Size, height, label histogram and both label sequences agree,
// so neither a pre-check nor the sequence bound tells them apart, yet
// their distance is 2: only the DP can prove it.
func mirrored(wrap int) (*tree.Tree, *tree.Tree) {
	t1, t2 := "a(a(a),a)", "a(a,a(a))"
	for ; wrap > 0; wrap-- {
		t1, t2 = "a(a,"+t1+",a)", "a(a,"+t2+",a)"
	}
	return tree.MustParse(t1), tree.MustParse(t2)
}

// TestDistanceWithinMetrics pins the accounting contract: a call with no
// cutoff is exact, unflagged and — the search certifying a small cutoff —
// touches fewer than FullCells on this close pair, bounded calls touch
// strictly fewer on prunable pairs, and the Precheck/Aborted flags
// identify how a rejection was proven.
func TestDistanceWithinMetrics(t *testing.T) {
	// A single-label tree against its mirror image defeats every
	// pre-check and the sequence bound, so the DP has to do the proving.
	t1, t2 := mirrored(3)
	d := EditScript(t1, t2).Cost
	if d != 2 {
		t.Fatalf("mirrored pair at distance %d, want 2", d)
	}
	checkSearch(t, t1, t2, UnitCost{}, d)
	var full Metrics
	Distance(t1, t2, WithMetrics(&full))
	if full.Cells == 0 || full.Cells >= full.FullCells {
		t.Fatalf("no cutoff: touched %d of %d cells, want strictly fewer (and some)", full.Cells, full.FullCells)
	}

	var m Metrics
	if _, ok := DistanceWithin(t1, t2, 0, WithMetrics(&m)); ok {
		t.Fatalf("distance %d reported within cutoff 0", d)
	}
	if m.Precheck || !m.Aborted {
		t.Fatalf("cutoff 0: precheck=%v aborted=%v, want DP abort", m.Precheck, m.Aborted)
	}
	if m.Cells == 0 || m.Cells >= m.FullCells {
		t.Fatalf("cutoff 0: touched %d of %d cells, want strictly fewer (and some)", m.Cells, m.FullCells)
	}

	// Within the cutoff: exact distance, still banded below the full count.
	var w Metrics
	got, ok := DistanceWithin(t1, t2, d, WithMetrics(&w))
	if !ok || got != d {
		t.Fatalf("DistanceWithin at the exact distance: (%d,%v), want (%d,true)", got, ok, d)
	}
	if w.Cells >= w.FullCells {
		t.Fatalf("cutoff %d: touched %d of %d cells, want strictly fewer", d, w.Cells, w.FullCells)
	}

	// Two chains with the same label multiset (two interior labels
	// swapped) pass every O(n) pre-check, but their label sequences
	// differ: the sequence bound rejects them, counted as a pre-check,
	// before the tree DP.
	labs1 := make([]string, 16)
	for i := range labs1 {
		labs1[i] = []string{"a", "b", "c"}[i%3]
	}
	labs2 := append([]string(nil), labs1...)
	labs2[5], labs2[9] = labs2[9], labs2[5]
	var sq Metrics
	if lb, ok := DistanceWithin(chainOf(labs1), chainOf(labs2), 1, WithMetrics(&sq)); ok || lb != 2 {
		t.Fatalf("permuted chains at cutoff 1: (%d,%v), want (2,false)", lb, ok)
	}
	if !sq.Precheck || sq.Aborted || sq.Cells != 0 {
		t.Fatalf("permuted chains: %+v, want a pre-check rejection with 0 cells", sq)
	}

	// A large size delta must be rejected by the pre-check, no DP at all.
	var p Metrics
	if _, ok := DistanceWithin(star(30, []string{"a"}), tree.MustParse("a"), 5, WithMetrics(&p)); ok {
		t.Fatal("size-delta pair reported within cutoff")
	}
	if !p.Precheck || p.Cells != 0 {
		t.Fatalf("size-delta pair: precheck=%v cells=%d, want rejection before any DP", p.Precheck, p.Cells)
	}
}

// TestDistanceWithinCellsGate is the DP-work regression gate: across fixed
// workloads with refine-realistic cutoffs, the bounded program must touch
// well under half of the full program's cells on small random pairs, and —
// the global positional band's contribution — under 15 % on knn_bigtree's
// 150-node within-cluster pairs at the cutoff its queries settle at, and
// with no cutoff at all (a k-NN query's first k verifications), where the
// doubling search does the bounding. At one below each pair's own distance
// — the k-NN abort regime, where the sequence bound rejects most pairs
// before the tree DP — the share must stay under 2.5 % (it is ≈ 0.8 %;
// without the sequence bound, ≈ 4.8 %).
func TestDistanceWithinCellsGate(t *testing.T) {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 20, SizeStd: 6, Labels: 6, Decay: 0.1}
	ts := datagen.New(spec, 23).Dataset(30, 5)
	var small [][2]*tree.Tree
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			small = append(small, [2]*tree.Tree{ts[i], ts[j]})
		}
	}
	big := clusterPairs(t, bigSpec, 11, 8)
	at := func(cutoff int) func(int) int { return func(int) int { return cutoff } }
	below := belowDistance(big)
	for _, g := range []struct {
		name     string
		pairs    [][2]*tree.Tree
		cutoff   func(i int) int
		maxShare float64
	}{
		{"small random pairs, τ=4", small, at(4), 0.50},
		{"150-node cluster pairs, τ=14", big, at(14), 0.15},
		{"150-node cluster pairs, τ=d-1", big, func(i int) int { return below[i] }, 0.025},
		{"150-node cluster pairs, no cutoff", big, at(noCutoff), 0.15},
	} {
		var touched, fullTotal int64
		for i, p := range g.pairs {
			var m Metrics
			DistanceWithin(p[0], p[1], g.cutoff(i), WithMetrics(&m))
			touched += m.Cells
			fullTotal += m.FullCells
		}
		if share := float64(touched) / float64(fullTotal); share >= g.maxShare {
			t.Errorf("%s: touched %d of %d full cells (%.1f%%); want < %.0f%%",
				g.name, touched, fullTotal, 100*share, 100*g.maxShare)
		} else {
			t.Logf("%s: %.1f%% of full cells", g.name, 100*share)
		}
	}
}

// belowDistance returns each pair's distance less one: the tightest
// cutoff the pair fails, where a k-NN query's verifications abort.
func belowDistance(pairs [][2]*tree.Tree) []int {
	out := make([]int, len(pairs))
	for i, p := range pairs {
		out[i] = Distance(p[0], p[1]) - 1
	}
	return out
}

// TestDistanceOptions pins the option-folding surface: defaults, nil
// options skipped, tightest cutoff winning, and negative cutoffs.
func TestDistanceOptions(t *testing.T) {
	t1 := paperT1()
	t2 := paperT2()
	c := weighted{rel: 2, ins: 1, del: 1}
	if got, want := Distance(t1, t2, nil, WithCost(c)), Distance(t1, t2, WithCost(c)); got != want {
		t.Fatalf("Distance with a nil option ahead of WithCost = %d, without = %d", got, want)
	}
	if got, want := Distance(t1, t2, WithCost(nil)), Distance(t1, t2); got != want {
		t.Fatalf("WithCost(nil) = %d, default = %d", got, want)
	}
	full := Distance(t1, t2)
	// The tightest of several cutoffs wins, wherever it is supplied.
	if _, ok := DistanceWithin(t1, t2, full+5, WithCutoff(full-1)); ok {
		t.Fatal("WithCutoff tighter than the argument was ignored")
	}
	if d, ok := DistanceWithin(t1, t2, full-1, WithCutoff(full+5)); ok || d != full-1+1 {
		t.Fatalf("argument cutoff: (%d,%v), want (%d,false)", d, ok, full)
	}
	if d := Distance(t1, t2, WithCutoff(full)); d != full {
		t.Fatalf("Distance WithCutoff at the distance = %d, want %d", d, full)
	}
	if d, ok := DistanceWithin(t1, t2, -3); ok || d != 0 {
		t.Fatalf("negative cutoff: (%d,%v), want (0,false)", d, ok)
	}
	if d, ok := DistanceWithin(t1, t1, 0); !ok || d != 0 {
		t.Fatalf("identical pair at cutoff 0: (%d,%v), want (0,true)", d, ok)
	}
	if d, ok := DistanceWithin(t1, t2, math.MaxInt); !ok || d != full {
		t.Fatalf("MaxInt cutoff: (%d,%v), want (%d,true)", d, ok, full)
	}
}

// benchPairs is a fixed workload of refine-sized tree pairs.
func benchPairs(n int) [][2]*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 28, SizeStd: 8, Labels: 6, Decay: 0.1}
	ts := datagen.New(spec, 31).Dataset(2*n, 5)
	pairs := make([][2]*tree.Tree, n)
	for i := range pairs {
		pairs[i] = [2]*tree.Tree{ts[2*i], ts[2*i+1]}
	}
	return pairs
}

// farPairs pairs the seed trees of distinct clusters of a benchmark
// dataset spec: unrelated trees of the same size and label alphabet.
func farPairs(tb testing.TB, spec string, seed int64, n int) [][2]*tree.Tree {
	tb.Helper()
	sp, err := datagen.ParseSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	g := datagen.New(sp, seed)
	pairs := make([][2]*tree.Tree, n)
	for i := range pairs {
		pairs[i] = [2]*tree.Tree{g.Seed(), g.Seed()}
	}
	return pairs
}

// BenchmarkDistanceWithin is the editdist rung; an op is one verified pair,
// so ns/op and B/op are per pair. DistanceWithin (preparing the first tree
// per pair) on small refine-sized pairs at a realistic cutoff and with none,
// and on knn_bigtree's 150-node within-cluster pairs at a tight cutoff, at
// the cutoff its queries settle at, at one below each pair's own distance
// (the k-NN abort regime), and with none (a k-NN query's first k
// verifications, where the doubling search runs); unrelated 150-node pairs
// with no cutoff are the search's worst case, which its fall-back to the
// band-off program holds near that program's cost. Then what mixed_rw's
// refine stage does — one prepared DBLP record against 10 000 records at
// τ=4, most of them rejected by the pre-checks — and what preparing a
// record costs once per request. Each verifying case reports DP cells per
// pair and, when there are any, time per cell.
func BenchmarkDistanceWithin(b *testing.B) {
	big := clusterPairs(b, bigSpec, 11, 8)
	small := benchPairs(64)
	for _, bc := range []struct {
		name   string
		pairs  [][2]*tree.Tree
		cutoff int
	}{
		{"small/τ=6", small, 6},
		{"small/full", small, math.MaxInt},
		{"big/τ=3", big, 3},
		{"big/τ=14", big, 14},
		{"big/full", big, math.MaxInt},
		{"far/full", farPairs(b, bigSpec, 11, 16), math.MaxInt},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchVerify(b, func(i int, m *Metrics) {
				p := bc.pairs[i%len(bc.pairs)]
				DistanceWithin(p[0], p[1], bc.cutoff, WithMetrics(m))
			})
		})
	}
	below := belowDistance(big)
	b.Run("big/τ=d-1", func(b *testing.B) {
		benchVerify(b, func(i int, m *Metrics) {
			p := big[i%len(big)]
			DistanceWithin(p[0], p[1], below[i%len(big)], WithMetrics(m))
		})
	})
	recs := dblp.New(1).Dataset(10_000)
	q := Prepare(recs[0])
	b.Run("dblp/τ=4", func(b *testing.B) {
		benchVerify(b, func(i int, m *Metrics) { q.Within(recs[i%len(recs)], 4, m) })
	})
	b.Run("prepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Prepare(recs[i%len(recs)])
		}
	})
}

// benchVerify times b.N verifications, the i-th reporting into m.
func benchVerify(b *testing.B, verify func(i int, m *Metrics)) {
	var m Metrics
	var cells int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verify(i, &m)
		cells += m.Cells
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
	if cells > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
	}
}
