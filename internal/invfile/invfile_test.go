package invfile

import (
	"maps"
	"testing"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/tree"
)

func dataset() []*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 15, SizeStd: 5, Labels: 5, Decay: 0.1}
	g := datagen.New(spec, 23)
	return g.Dataset(40, 4)
}

// TestProfilesMatchDirect: reading the inverted lists back by tree yields
// exactly the branch vector of each directly profiled tree (Algorithm 1's
// two halves are consistent).
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
		for d := 0; d < space.Size(); d++ {
			for _, p := range x.PostingList(branch.Dim(d)) {
				scanned[p.Tree][branch.Dim(d)] += int(p.Count)
			}
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
// accumulator agree with the pairwise merge-join ones, for queries from
// the dataset and for a lookup-only query profile with unseen branches.
func TestDistancesMatch(t *testing.T) {
	ts := dataset()
	space := branch.NewSpace(2)
	ps := space.ProfileAll(ts[:30])
	x := Build(ps)
	queries := append([]*branch.Profile{}, ps[:12]...)
	for _, qt := range ts[30:] {
		queries = append(queries, space.QueryProfile(qt))
	}
	queries = append(queries, space.QueryProfile(tree.MustParse("zz(zz(zz),b)")))
	for qi, q := range queries {
		acc := x.BDists(q)
		if len(acc) != len(ps) {
			t.Fatalf("accumulator has %d slots, want %d", len(acc), len(ps))
		}
		for j, p := range ps {
			want := branch.BDist(q, p)
			if got := int(acc[j]); got != want {
				t.Fatalf("BDist(query %d, tree %d): accumulator %d, merge-join %d", qi, j, got, want)
			}
		}
	}
}

func TestIndexAccounting(t *testing.T) {
	ts := dataset()
	space := branch.NewSpace(2)
	x := Build(space.ProfileAll(ts))
	if x.Trees() != len(ts) {
		t.Errorf("Trees = %d, want %d", x.Trees(), len(ts))
	}
	total := 0
	for _, tr := range ts {
		total += tr.Size()
	}
	// Every branch of the vocabulary has a list, and the postings cover
	// all nodes exactly once.
	covered := 0
	for d := 0; d < space.Size(); d++ {
		if len(x.PostingList(branch.Dim(d))) == 0 {
			t.Errorf("dimension %d of the vocabulary has no postings", d)
		}
		for _, p := range x.PostingList(branch.Dim(d)) {
			if p.Count == 0 {
				t.Fatalf("dim %d: empty posting for tree %d", d, p.Tree)
			}
			covered += int(p.Count)
		}
	}
	if covered != total {
		t.Errorf("postings cover %d occurrences, want %d", covered, total)
	}
	if got := x.PostingList(branch.Dim(space.Size() + 7)); len(got) != 0 {
		t.Errorf("dimension beyond the vocabulary has %d postings", len(got))
	}
}

func TestPostingOrder(t *testing.T) {
	ts := dataset()
	space := branch.NewSpace(2)
	x := Build(space.ProfileAll(ts))
	// Postings are filled in tree order, so tree positions ascend per list.
	for d := 0; d < space.Size(); d++ {
		list := x.PostingList(branch.Dim(d))
		for k := 1; k < len(list); k++ {
			if list[k].Tree <= list[k-1].Tree {
				t.Fatalf("dim %d: posting trees not ascending", d)
			}
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	x := Build(nil)
	if x.Trees() != 0 || len(x.PostingList(0)) != 0 {
		t.Error("empty dataset index should be empty")
	}
	q := branch.NewSpace(2).QueryProfile(tree.MustParse("a(b)"))
	if got := x.BDists(q); len(got) != 0 {
		t.Error("empty dataset should yield no distances")
	}
}
