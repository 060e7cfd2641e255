package editdist

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/tree"
)

// clusterPairs returns within-cluster pairs of a benchmark dataset spec:
// per cluster one seed tree and two trees derived from it, paired
// (seed, derived) and (derived, derived) — the pairs the refine stage
// verifies on knn_bigtree (150 nodes) and range_scan (50 nodes).
func clusterPairs(tb testing.TB, spec string, seed int64, clusters int) [][2]*tree.Tree {
	tb.Helper()
	sp, err := datagen.ParseSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	g := datagen.New(sp, seed)
	var pairs [][2]*tree.Tree
	for c := 0; c < clusters; c++ {
		s := g.Seed()
		d1, d2 := g.Derive(s), g.Derive(s)
		pairs = append(pairs, [2]*tree.Tree{s, d1}, [2]*tree.Tree{d1, d2})
	}
	return pairs
}

const (
	bigSpec = "N{2,0.5}N{150,5}L8D0.05" // knn_bigtree's dataset
	midSpec = "N{4,0.5}N{50,2}L8D0.05"  // range_scan's dataset, the paper's default
)

// leftHeavy and rightHeavy build caterpillars of n nodes whose long path
// runs down the first (resp. last) child: one keyroot chain for the one,
// n/2 keyroots for the other.
func leftHeavy(n int) *tree.Tree  { return tree.MustParse(caterpillar(n, true)) }
func rightHeavy(n int) *tree.Tree { return tree.MustParse(caterpillar(n, false)) }

func caterpillar(n int, left bool) string {
	switch {
	case n <= 1:
		return "a"
	case n == 2:
		return "a(b)"
	case left:
		return "a(" + caterpillar(n-2, left) + ",b)"
	default:
		return "a(b," + caterpillar(n-2, left) + ")"
	}
}

// shiftPair is the global band's boundary case: t1 carries a subtree of s
// nodes as the first (or last) child of the root, t2 is t1 without it, so
// every surviving node's postorder position (far left) or the root's
// leftmost leaf (both) shifts by exactly s and the distance is s.
func shiftPair(s int, farLeft bool) (t1, t2 *tree.Tree) {
	rest, sub := "c(a,b),a(b(c)),b,c(a)", caterpillar(s, true)
	if farLeft {
		return tree.MustParse("a(" + sub + "," + rest + ")"), tree.MustParse("a(" + rest + ")")
	}
	return tree.MustParse("a(" + rest + "," + sub + ")"), tree.MustParse("a(" + rest + ")")
}

// bandModels are the three cost regimes of the bounded kernel: unit costs
// (band = cutoff, id-compare relabel), a weighted model whose cheapest
// operation costs 2 (band = cutoff/2, Relabel calls), and an opaque one
// without MinOpCoster (no band, frontier abandoning only).
func bandModels(scale int) []CostModel {
	return []CostModel{
		UnitCost{},
		bandedWeighted{weighted{rel: 2 + scale, ins: 2, del: 2 + 2*scale}},
		weighted{rel: 1 + scale, ins: 1, del: 1 + scale},
	}
}

// TestGlobalBandEveryCutoff sweeps every cutoff from 0 to past the distance
// on the shapes where the global positional band cuts deepest or sits
// exactly on its boundary, and on the benchmark's own within-cluster
// pairs, under all three cost regimes.
func TestGlobalBandEveryCutoff(t *testing.T) {
	labels := fuzzLabels
	type pair struct {
		name   string
		t1, t2 *tree.Tree
	}
	var pairs []pair
	for _, s := range []int{1, 4, 9} {
		for _, farLeft := range []bool{true, false} {
			t1, t2 := shiftPair(s, farLeft)
			name := fmt.Sprintf("shift%d/left=%v", s, farLeft)
			pairs = append(pairs, pair{name, t1, t2}, pair{name + "/rev", t2, t1})
		}
	}
	pairs = append(pairs,
		pair{"chain×star", chain(14, labels), star(14, labels)},
		pair{"star×chain", star(12, labels), chain(15, labels)},
		pair{"left×right", leftHeavy(21), rightHeavy(21)},
		pair{"right×left", rightHeavy(18), leftHeavy(23)},
		pair{"left×left", leftHeavy(21), leftHeavy(17)},
	)
	for i, p := range clusterPairs(t, bigSpec, 5, 1) {
		pairs = append(pairs, pair{fmt.Sprintf("big%d", i), p[0], p[1]})
	}
	for i, p := range clusterPairs(t, midSpec, 6, 2) {
		pairs = append(pairs, pair{fmt.Sprintf("mid%d", i), p[0], p[1]})
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			for _, c := range bandModels(1) {
				full := EditScriptCost(p.t1, p.t2, c).Cost
				checkSearch(t, p.t1, p.t2, c, full)
				for cutoff := 0; cutoff <= full+2; cutoff++ {
					checkWithinRef(t, p.t1, p.t2, cutoff, full, WithCost(c))
				}
			}
		})
	}
}

// TestKernelZeroAllocs: once one call has warmed the pool, the kernel
// proper — decompositions prepared by the caller — allocates nothing, with
// or without a band, under unit and custom costs.
func TestKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	p := clusterPairs(t, bigSpec, 3, 1)[0]
	for _, c := range bandModels(1) {
		q := Prepare(p[0], WithCost(c))
		a, b := q.d, new(scratch).decompose(p[1], q)
		for _, cutoff := range []int{14, noCutoff} {
			run := func() {
				k := newKernel(a, b, c, cutoff, min(cutoff, a.n+b.n))
				k.run()
				k.release()
			}
			run()
			if n := testing.AllocsPerRun(20, run); n != 0 {
				t.Errorf("%T cutoff %d: %v allocations per kernel run, want 0", c, cutoff, n)
			}
		}
	}
}

// TestKernelAboveCapNotPooled: a pair whose tables exceed maxPooledCells
// must not leave them in the pool.
func TestKernelAboveCapNotPooled(t *testing.T) {
	n := 600
	if (n+1)*(n+1) <= maxPooledCells {
		t.Fatalf("test pair of %d nodes fits the cap %d", n, maxPooledCells)
	}
	if d := Distance(chain(n, []string{"a", "b"}), chain(n, []string{"a"})); d != n/2 {
		t.Fatalf("chain distance %d, want %d", d, n/2)
	}
	for {
		k, _ := kernelPool.Get().(*kernel)
		if k == nil {
			return
		}
		if cap(k.td) > maxPooledCells || cap(k.fd) > maxPooledCells {
			t.Fatalf("pool holds tables of %d cells, cap is %d", cap(k.td), maxPooledCells)
		}
		if k.a != nil || k.b != nil || k.cost != nil {
			t.Fatal("pooled kernel still references its last pair")
		}
	}
}

// TestKernelPoolConcurrent: the pools are shared by the refine workers of
// one query and by concurrent queries, and a refine worker shares its
// query's Query with the others; goroutines verifying different pairs at
// different cutoffs at once — through DistanceWithin and through one
// shared Query per first tree — must each get the sequential answer.
func TestKernelPoolConcurrent(t *testing.T) {
	pairs := append(clusterPairs(t, midSpec, 9, 4), benchPairs(8)...)
	cutoffs := []int{3, 9, noCutoff}
	type answer struct {
		d  int
		ok bool
		m  Metrics
	}
	want := make([]answer, len(pairs)*len(cutoffs))
	for i := range want {
		p := pairs[i/len(cutoffs)]
		want[i].d, want[i].ok = DistanceWithin(p[0], p[1], cutoffs[i%len(cutoffs)], WithMetrics(&want[i].m))
	}
	queries := make([]*Query, len(pairs))
	for i, p := range pairs {
		queries[i] = Prepare(p[0])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 3*len(want); n++ {
				i := (n*7 + g*11) % len(want)
				p, cutoff := pairs[i/len(cutoffs)], cutoffs[i%len(cutoffs)]
				var got answer
				if n%2 == 0 {
					got.d, got.ok = DistanceWithin(p[0], p[1], cutoff, WithMetrics(&got.m))
				} else {
					got.d, got.ok = queries[i/len(cutoffs)].Within(p[1], cutoff, &got.m)
				}
				if got != want[i] {
					t.Errorf("pair %d cutoff %d: concurrent %+v, sequential %+v",
						i/len(cutoffs), cutoff, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// fuzzSrc decodes trees and parameters from fuzz input; an exhausted
// input reads as zeros.
type fuzzSrc struct{ data []byte }

func (s *fuzzSrc) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

var fuzzLabels = []string{"a", "b", "c"}

// tree decodes a header byte (node count ≤ 24, shape: chain, star or
// random attachment) and one byte per node: label, and for random
// attachment the parent among the nodes created so far.
func (s *fuzzSrc) tree() *tree.Tree {
	h := s.next()
	n, shape := h%25, (h/25)%3
	if n == 0 {
		return tree.New(nil)
	}
	nodes := make([]*tree.Node, n)
	for i := range nodes {
		b := s.next()
		nodes[i] = &tree.Node{Label: fuzzLabels[b%3]}
		if i == 0 {
			continue
		}
		parent := []int{i - 1, 0, (b / 3) % i}[shape]
		nodes[parent].Children = append(nodes[parent].Children, nodes[i])
	}
	return tree.New(nodes[0])
}

// edits applies k decoded insert/delete/relabel operations to a clone.
func (s *fuzzSrc) edits(t *tree.Tree, k int) *tree.Tree {
	out := t.Clone()
	for ; k > 0; k-- {
		op, at, arg := s.next(), s.next(), s.next()
		nodes := out.PreOrder()
		if len(nodes) == 0 {
			out.Root = &tree.Node{Label: fuzzLabels[arg%3]}
			continue
		}
		n := nodes[at%len(nodes)]
		switch op % 3 {
		case 0:
			pos := arg % (len(n.Children) + 1)
			count := (arg / 8) % (len(n.Children) - pos + 1)
			_, _ = tree.Insert(out, n, pos, count, fuzzLabels[arg%3])
		case 1:
			_ = tree.Delete(out, n) // a multi-child root refuses: no edit
		default:
			n.Label = fuzzLabels[arg%3]
		}
	}
	return out
}

// fuzzTree encodes a tree for the decoder's shape 2, random attachment,
// which reproduces any tree from its preorder parent list.
func fuzzTree(t *tree.Tree) []byte {
	nodes := t.PreOrder()
	out := []byte{byte(len(nodes) + 2*25)}
	parent := map[*tree.Node]int{}
	for i, n := range nodes {
		for _, c := range n.Children {
			parent[c] = i
		}
		out = append(out, byte(strings.Index("abc", n.Label)+3*parent[n]))
	}
	return out
}

// fuzzInput encodes a pair as independent trees followed by the cutoff and
// cost-scale bytes; a third tree, when given, follows those.
func fuzzInput(t1, t2 *tree.Tree, cutoff, scale int, t3 ...*tree.Tree) []byte {
	in := append(fuzzTree(t1), 0) // mode 0: second tree independent
	in = append(in, fuzzTree(t2)...)
	in = append(in, byte(cutoff), byte(scale))
	for _, t := range t3 {
		in = append(in, fuzzTree(t)...)
	}
	return in
}

// FuzzDistanceWithin checks the DistanceWithin contract — ok ⇔ distance ≤
// cutoff, d exact when ok, cutoff < d ≤ distance otherwise — on decoded
// pairs under all three cost regimes, against brute force when both trees
// are small enough and against the band-off kernel otherwise; and holds
// the no-cutoff search to the same reference (checkSearch). A third
// decoded tree (empty when the input runs out) is the second candidate of
// one Query prepared from the first tree, asked about t2, t3 and t2 again:
// each answer and its Metrics must equal a fresh DistanceWithin's, which
// catches scratch state one call leaves to the next. The sequence bound
// the verifier rejects and seeds by must stay a lower bound: scaled by
// the cheapest operation, never above either pair's distance.
func FuzzDistanceWithin(f *testing.F) {
	labels := fuzzLabels
	for _, s := range []int{5, 6} { // positions shift by τ and τ+1 at cutoff 5
		for _, farLeft := range []bool{true, false} {
			t1, t2 := shiftPair(s, farLeft)
			f.Add(fuzzInput(t1, t2, 5, 0))
			f.Add(fuzzInput(t2, t1, 5, 1, t1))
		}
	}
	f.Add(fuzzInput(chain(12, labels), star(12, labels), 9, 0, chain(11, labels)))
	f.Add(fuzzInput(star(7, labels), chain(6, labels), 3, 2, star(8, labels)))
	f.Add(fuzzInput(leftHeavy(21), rightHeavy(21), 12, 0, leftHeavy(19)))
	f.Add(fuzzInput(rightHeavy(7), leftHeavy(7), 4, 3))
	m1, m2 := mirrored(2) // only the DP tells these apart
	f.Add(fuzzInput(m1, m2, 1, 0, m1))
	// 24 nodes by random attachment, then mode 7: three decoded edits of
	// the first tree; cutoff 3, scale 1.
	f.Add([]byte{24 + 50, 1, 5, 9, 13, 17, 3, 7, 2, 0, 1, 4, 8, 11, 3, 6, 0, 2, 9, 1, 5, 7, 3, 1, 2, 7, 1, 9, 2, 0, 4, 1, 2, 2, 5, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSrc{data}
		t1 := s.tree()
		var t2 *tree.Tree
		if mode := s.next(); mode%2 == 0 {
			t2 = s.tree()
		} else {
			t2 = s.edits(t1, (mode/2)%6)
		}
		cutoff, scale := s.next()%64, s.next()%4
		t3 := s.tree()
		for _, c := range bandModels(scale) {
			reference := func(t2 *tree.Tree) int {
				if t1.Size() <= 7 && t2.Size() <= 7 {
					return BruteForce(t1, t2, c)
				}
				return EditScriptCost(t1, t2, c).Cost
			}
			full := reference(t2)
			// Every operation of the three models costs at least 1.
			cmin := max(MinOpCost(c), 1)
			if seq := SequenceLowerBound(t1, t2); cmin*seq > full {
				t.Fatalf("%T: %d × sequence bound %d exceeds distance %d for %q vs %q", c, cmin, seq, full, t1, t2)
			}
			checkSearch(t, t1, t2, c, full)
			checkWithinRef(t, t1, t2, cutoff, full, WithCost(c))
			q := Prepare(t1, WithCost(c))
			for _, cand := range []*tree.Tree{t2, t3, t2} {
				var m, want Metrics
				wd, wok := DistanceWithin(t1, cand, cutoff, WithCost(c), WithMetrics(&want))
				zeroKernelPool()
				d, ok := q.Within(cand, cutoff, &m)
				if d != wd || ok != wok || m != want {
					t.Fatalf("Query(%q).Within(%q, %d) = (%d, %v, %+v), DistanceWithin = (%d, %v, %+v)",
						t1, cand, cutoff, d, ok, m, wd, wok, want)
				}
				if cand == t3 {
					full := reference(t3)
					if seq := SequenceLowerBound(t1, t3); cmin*seq > full {
						t.Fatalf("%T: %d × sequence bound %d exceeds distance %d for %q vs %q", c, cmin, seq, full, t1, t3)
					}
					checkVerdict(t, t1, t3, cutoff, full, d, ok)
					checkSearch(t, t1, t3, c, full)
				}
			}
		}
	})
}
