package invfile

import (
	"cmp"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/tree"
)

// star returns r(c, c, …, c) with n leaves: its branch c(ε, c) occurs n−1
// times, so n ≥ countMask+1 saturates a posting's count bits.
func star(n int) *tree.Tree {
	root := tree.NewNode("r")
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, tree.NewNode("c"))
	}
	return tree.New(root)
}

// dataset is random trees with stars around countMask mixed in, so lists
// hold exact and saturated postings side by side.
func dataset() []*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 15, SizeStd: 5, Labels: 5, Decay: 0.1}
	ts := datagen.New(spec, 23).Dataset(40, 4)
	for i, n := range []int{40, 16, 17, 3, 18} {
		ts = append(ts[:7*i+3], append([]*tree.Tree{star(n)}, ts[7*i+3:]...)...)
	}
	return ts
}

// posting is one decoded entry of an inverted list.
type posting struct{ tree, count int }

// list decodes dimension d's inverted list, taking the count of each word
// that reads countMask from the side array entry at its position, or 0
// where there is none.
func (x *Index) list(d branch.Dim) []posting {
	if int(d) >= len(x.start)-1 {
		return nil
	}
	var out []posting
	for at := x.start[d]; at < x.start[d+1]; at++ {
		e := x.posts[at]
		p := posting{tree: int(e >> countBits), count: int(e & countMask)}
		if p.count == countMask {
			i, ok := slices.BinarySearchFunc(x.sats, at, func(s sat, at uint32) int { return cmp.Compare(s.at, at) })
			p.count = 0
			if ok {
				p.count = int(x.sats[i].c)
			}
		}
		out = append(out, p)
	}
	return out
}

// bdists is BDist of the query to every indexed tree through the sweep.
func bdists(x *Index, q *branch.Profile, ps []*branch.Profile) []int {
	ov := make([]int32, len(ps))
	for i := range ov {
		ov[i] = -7 // Overlaps must not depend on what ov held
	}
	x.Overlaps(q, ov)
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = q.Size + p.Size - 2*int(ov[i])
	}
	return out
}

// TestProfilesMatchDirect: reading the inverted lists back by tree yields
// exactly the branch vector of each directly profiled tree (Algorithm 1's
// two halves are consistent), saturated counts included.
func TestProfilesMatchDirect(t *testing.T) {
	ts := dataset()
	for _, q := range []int{2, 3} {
		space := branch.NewSpace(q)
		direct := space.ProfileAll(ts)
		x := Build(direct)
		scanned := make([]map[branch.Dim]int, len(ts))
		for i := range scanned {
			scanned[i] = map[branch.Dim]int{}
		}
		saturated := 0
		for d := 0; d < space.Size(); d++ {
			for _, p := range x.list(branch.Dim(d)) {
				scanned[p.tree][branch.Dim(d)] += p.count
				if p.count > countMask {
					saturated++
				}
			}
		}
		if saturated == 0 {
			t.Fatalf("q=%d: no posting saturated its count bits", q)
		}
		for i, p := range direct {
			want := map[branch.Dim]int{}
			for j, d := range p.Dims() {
				want[d] += p.Count(j)
			}
			if !maps.Equal(want, scanned[i]) {
				t.Fatalf("q=%d tree %d: vectors differ\n direct: %v\n scanned: %v", q, i, want, scanned[i])
			}
		}
	}
}

// TestDistancesMatch: branch distances computed through the postings
// sweep agree with the pairwise merge-join ones, for queries from the
// dataset, for lookup-only query profiles with unseen branches, and for
// stars whose counts sit below, at and above countMask on either side.
func TestDistancesMatch(t *testing.T) {
	ts := dataset()
	space := branch.NewSpace(2)
	ps := space.ProfileAll(ts[:34])
	x := Build(ps)
	queries := append([]*branch.Profile{}, ps[:12]...)
	for _, qt := range ts[34:] {
		queries = append(queries, space.QueryProfile(qt))
	}
	for _, n := range []int{2, 15, 16, 17, 30, 60} {
		queries = append(queries, space.QueryProfile(star(n)))
	}
	queries = append(queries, space.QueryProfile(tree.MustParse("zz(zz(zz),b)")))
	for qi, q := range queries {
		for j, got := range bdists(x, q, ps) {
			if want := branch.BDist(q, ps[j]); got != want {
				t.Fatalf("BDist(query %d, tree %d): sweep %d, merge-join %d", qi, j, got, want)
			}
		}
	}
}

func TestIndexAccounting(t *testing.T) {
	ts := dataset()
	space := branch.NewSpace(2)
	ps := space.ProfileAll(ts)
	x := Build(ps)
	if x.trees != len(ts) {
		t.Errorf("%d trees indexed, want %d", x.trees, len(ts))
	}
	// Every branch list holds one word per posting, and the side array
	// exactly the postings whose count reaches countMask, by the position
	// of their word, with that count.
	byDim := make([][]sat, space.Size())
	carriers := make([]uint32, space.Size())
	for _, p := range ps {
		for j, d := range p.Dims() {
			if c := p.Count(j); c >= countMask {
				byDim[d] = append(byDim[d], sat{x.start[d] + carriers[d], uint32(c)})
			}
			carriers[d]++
		}
	}
	for d, n := range carriers {
		if got := len(x.dimList(branch.Dim(d))); got != int(n) {
			t.Errorf("dim %d: %d words for %d postings", d, got, n)
		}
	}
	if want := slices.Concat(byDim...); len(want) == 0 || !slices.Equal(x.sats, want) {
		t.Errorf("side array %v, want %v", x.sats, want)
	}
	total := 0
	for _, tr := range ts {
		total += tr.Size()
	}
	// Every branch of the vocabulary has a list, and the postings cover
	// all nodes exactly once.
	covered := 0
	for d := 0; d < space.Size(); d++ {
		if len(x.list(branch.Dim(d))) == 0 {
			t.Errorf("dimension %d of the vocabulary has no postings", d)
		}
		for _, p := range x.list(branch.Dim(d)) {
			if p.count == 0 {
				t.Fatalf("dim %d: empty posting for tree %d", d, p.tree)
			}
			covered += p.count
		}
	}
	if covered != total {
		t.Errorf("postings cover %d occurrences, want %d", covered, total)
	}
	if got := x.list(branch.Dim(space.Size() + 7)); len(got) != 0 {
		t.Errorf("dimension beyond the vocabulary has %d postings", len(got))
	}
	// The largest tree position still leaves its count bits intact, and
	// one more would not fit in a posting.
	if uint64(MaxTrees-1)<<countBits|countMask != math.MaxUint32 {
		t.Errorf("MaxTrees %d does not fill a posting's tree bits", MaxTrees)
	}
}

func TestPostingOrder(t *testing.T) {
	ts := dataset()
	space := branch.NewSpace(2)
	x := Build(space.ProfileAll(ts))
	// Postings are filled in tree order, so tree positions ascend per list.
	for d := 0; d < space.Size(); d++ {
		list := x.list(branch.Dim(d))
		for k := 1; k < len(list); k++ {
			if list[k].tree <= list[k-1].tree {
				t.Fatalf("dim %d: posting trees not ascending", d)
			}
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	x := Build(nil)
	if x.trees != 0 || len(x.list(0)) != 0 {
		t.Error("empty dataset index should be empty")
	}
	q := branch.NewSpace(2).QueryProfile(tree.MustParse("a(b)"))
	x.Overlaps(q, nil) // nothing to sweep into, and nothing to sweep
	if base := x.LabelOverlaps([]branch.LabelCount{{Label: 0, Count: 3}}, nil); base != 0 {
		t.Errorf("empty dataset: label base %d", base)
	}
}

// labelHist is t's label histogram, counted node by node.
func labelHist(t *tree.Tree) map[string]int {
	h := map[string]int{}
	t.Walk(func(n *tree.Node) bool {
		h[n.Label]++
		return true
	})
	return h
}

// mix returns r(c, …, c, y(z), b, …, y(z), b) with k leaves c and k pairs
// y(z), b: labels c and y occur k times each, c rooting two branches and y
// only y(z, b), so y's label list is that branch's list.
func mix(k int) *tree.Tree {
	root := tree.NewNode("r")
	for i := 0; i < k; i++ {
		root.Children = append(root.Children, tree.NewNode("c"))
	}
	for i := 0; i < k; i++ {
		y := tree.NewNode("y")
		y.Children = append(y.Children, tree.NewNode("z"))
		root.Children = append(root.Children, y, tree.NewNode("b"))
	}
	return tree.New(root)
}

// TestLabelOverlapsMatchDefinition holds the label sweep to the label
// tier's definition, computed from the trees themselves: a label carried
// by more than half of the indexed trees credits each carrier with the
// query's full count of it, any other label min(q_l, t_l); and it holds
// the sweep less Excess to the exact overlap Σ_l min(q_l, t_l), but for a
// dense label the query carries more than 255 times, which keeps the
// swept credit. In the mixed
// dataset the stars' label c sits in few trees, so its exact list holds
// counts below, at and above the escape, each the sum of a tree's two
// branches rooted at c; the random trees' labels sit in most trees and
// take complement lists, merged from many branch lists. In the stars-only
// dataset r roots one branch and sits in most trees, c roots two and sits
// in all, and e sits in one. The queries include labels no indexed tree has
// and a tree whose branches are all unknown to the space while two of its
// labels are not. In the counts dataset the dense labels c (merged) and y
// (shared) sit in trees at counts 1, 2, 15, 16, 17 (the posting escape),
// 255, 256 and 300, and queries carry them once, twice and 300 times, so
// columns saturate and DenseCounts leaves a label out.
func TestLabelOverlapsMatchDefinition(t *testing.T) {
	stars := []*tree.Tree{star(2), star(16), star(17), star(40), star(3), tree.MustParse("c(c)"), tree.MustParse("e(c,c)")}
	var counts []*tree.Tree
	for _, k := range []int{1, 2, 15, 16, 17, 255, 256, 300} {
		counts = append(counts, mix(k))
	}
	counts = append(counts, tree.MustParse("e(f)"), tree.MustParse("e(c)"), star(40))
	for _, ts := range [][]*tree.Tree{dataset(), stars, counts} {
		checkLabelOverlaps(t, ts)
	}
}

func checkLabelOverlaps(t *testing.T, ts []*tree.Tree) {
	t.Helper()
	_, carriers := labelCarriers(ts)
	dense := 0
	for _, c := range carriers {
		if 2*c > len(ts) {
			dense++
		}
	}
	if dense == 0 || dense == len(carriers) {
		t.Fatalf("%d of %d labels dense: one kind of list goes untested", dense, len(carriers))
	}
	queries := append([]*tree.Tree{}, ts[:min(12, len(ts))]...)
	for _, n := range []int{2, 15, 16, 17, 30, 60} {
		queries = append(queries, star(n))
	}
	queries = append(queries,
		tree.MustParse("zz(zz(zz),b)"),
		tree.MustParse("zz(l1(zz),zz,l2(zz),zz)"),
		mix(1), mix(2), mix(300))
	space := branch.NewSpace(2)
	if checkLabelSweep(t, space, Build(space.ProfileAll(ts)), ts, queries) == 0 {
		t.Fatal("Excess corrected no tree: the dense columns go untested")
	}
}

// labelCarriers returns each tree's label histogram and, per label, how
// many of the trees carry it.
func labelCarriers(ts []*tree.Tree) ([]map[string]int, map[string]int) {
	hs := make([]map[string]int, len(ts))
	carriers := map[string]int{}
	for i, tr := range ts {
		hs[i] = labelHist(tr)
		for l := range hs[i] {
			carriers[l]++
		}
	}
	return hs, carriers
}

// checkLabelSweep holds x's label sweep over ts, indexed in space, to the
// label tier's definition for every query (see
// TestLabelOverlapsMatchDefinition), with and without Excess, and returns
// how many trees Excess corrected.
func checkLabelSweep(t testing.TB, space *branch.Space, x *Index, ts, queries []*tree.Tree) (corrected int) {
	t.Helper()
	hs, carriers := labelCarriers(ts)
	lov := make([]int32, len(ts))
	for qi, q := range queries {
		for i := range lov {
			lov[i] = -7 // LabelOverlaps must not depend on what lov held
		}
		qh := labelHist(q)
		ql := space.QueryLabels(q, nil)
		base := x.LabelOverlaps(ql, lov)
		ds := x.DenseCounts(ql, nil)
		for i := range ts {
			swept, exact := 0, 0
			for l, tc := range hs[i] {
				dense := 2*carriers[l] > len(ts)
				if dense {
					swept += qh[l]
				} else {
					swept += min(qh[l], tc)
				}
				if dense && qh[l] > 255 {
					exact += qh[l]
				} else {
					exact += min(qh[l], tc)
				}
			}
			if got := int(base + lov[i]); got != swept {
				t.Fatalf("query %d (%s), tree %d: swept label overlap %d, by definition %d", qi, q, i, got, swept)
			}
			ex := x.Excess(ds, i)
			if got := int(base + lov[i] - ex); got != exact {
				t.Fatalf("query %d (%s), tree %d: corrected label overlap %d, by definition %d", qi, q, i, got, exact)
			}
			if ex > 0 {
				corrected++
			}
		}
	}
	return corrected
}

// FuzzSweep holds both sweeps to their definitions on random forests from
// datagen with stars and mixes mixed in whose counts straddle countMask and
// 255, for queries that carry a branch and a label once, twice, countMask,
// countMask+1 and far more times: Overlaps to branch.BDist tree by tree,
// LabelOverlaps with and without Excess to the label-histogram definition.
func FuzzSweep(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(5))
	f.Add(int64(2), uint8(8), uint8(1))
	f.Add(int64(3), uint8(47), uint8(2))
	f.Add(int64(4), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n, labels uint8) {
		spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1.5, SizeMean: 12, SizeStd: 6, Labels: 1 + int(labels%8), Decay: 0.2}
		g := datagen.New(spec, seed)
		ts := g.Dataset(1+int(n%48), 1+int(n%48)/4)
		rng := rand.New(rand.NewSource(seed))
		for _, k := range []int{countMask - 1, countMask, countMask + 1, countMask + 2, 255, 256} {
			s := star(k + 1)
			if rng.Intn(2) == 0 {
				s = mix(k)
			}
			ts = slices.Insert(ts, rng.Intn(len(ts)+1), s)
		}
		queries := []*tree.Tree{ts[0], ts[len(ts)/2], g.Derive(ts[len(ts)-1]), g.Seed()}
		for _, k := range []int{1, 2, countMask, countMask + 1, 300} {
			queries = append(queries, star(k+1), mix(k))
		}
		for _, q := range []int{2, 3} {
			space := branch.NewSpace(q)
			ps := space.ProfileAll(ts)
			x := Build(ps)
			for qi, qt := range queries {
				qp := space.QueryProfile(qt)
				for i, got := range bdists(x, qp, ps) {
					if want := branch.BDist(qp, ps[i]); got != want {
						t.Fatalf("q=%d: BDist(query %d, tree %d): sweep %d, merge-join %d", q, qi, i, got, want)
					}
				}
			}
			checkLabelSweep(t, space, x, ts, queries)
		}
	})
}
