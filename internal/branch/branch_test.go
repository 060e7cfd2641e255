package branch

import (
	"testing"

	"treesim/internal/tree"
)

func paperT1() *tree.Tree { return tree.MustParse("a(b(c,d),b(c,d),e)") }
func paperT2() *tree.Tree { return tree.MustParse("a(b(c,d,b(e)),c,d,e)") }

func TestFactor(t *testing.T) {
	for q, want := range map[int]int{2: 5, 3: 9, 4: 13} {
		if got := Factor(q); got != want {
			t.Errorf("Factor(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestNewSpaceRejectsQ1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSpace(1) should panic")
		}
	}()
	NewSpace(1)
}

// vectorOf materializes the sparse branch vector BRV_q(T) of Definition 3
// from a profile's flat arrays, as a map from dimension to its non-zero
// count.
func vectorOf(p *Profile) map[Dim]int {
	v := make(map[Dim]int, p.NonZero())
	for i, d := range p.Dims() {
		v[d] += p.Count(i)
	}
	return v
}

// branchSet returns the multiset of branch label-sequences of a profile.
func branchSet(p *Profile) map[string]int {
	out := make(map[string]int)
	for d, c := range vectorOf(p) {
		out[join(KeyLabels(p.Space().Key(d)))] = c
	}
	return out
}

func join(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "|"
		}
		s += p
	}
	return s
}

// TestProfilePaperT1 checks the exact branch multiset of T1 against the
// hand-derived content of Fig. 3 (vocabulary rows of the inverted file).
func TestProfilePaperT1(t *testing.T) {
	s := NewSpace(2)
	p := s.Profile(paperT1())
	if p.Size != 8 {
		t.Fatalf("Size = %d, want 8", p.Size)
	}
	got := branchSet(p)
	want := map[string]int{
		"a|b|ε": 1, "b|c|b": 1, "b|c|e": 1, "c|ε|d": 2, "d|ε|ε": 2, "e|ε|ε": 1,
	}
	assertSameCounts(t, got, want)
}

// TestProfilePaperT2 checks T2's branch multiset likewise.
func TestProfilePaperT2(t *testing.T) {
	s := NewSpace(2)
	p := s.Profile(paperT2())
	if p.Size != 9 {
		t.Fatalf("Size = %d, want 9", p.Size)
	}
	got := branchSet(p)
	want := map[string]int{
		"a|b|ε": 1, "b|c|c": 1, "c|ε|d": 2, "d|ε|b": 1, "b|e|ε": 1,
		"e|ε|ε": 2, "d|ε|e": 1,
	}
	assertSameCounts(t, got, want)
}

func assertSameCounts(t *testing.T, got, want map[string]int) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Errorf("branch %q count = %d, want %d", k, got[k], w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected branch %q (count %d)", k, g)
		}
	}
}

// TestBDistPaperPair: the binary branch vectors of Fig. 3 give
// BDist(T1,T2) = 9.
func TestBDistPaperPair(t *testing.T) {
	s := NewSpace(2)
	p1, p2 := s.Profile(paperT1()), s.Profile(paperT2())
	if got := BDist(p1, p2); got != 9 {
		t.Errorf("BDist(T1,T2) = %d, want 9", got)
	}
	// Sanity: self-distance and symmetry.
	if BDist(p1, p1) != 0 {
		t.Error("BDist(T1,T1) != 0")
	}
	if BDist(p1, p2) != BDist(p2, p1) {
		t.Error("BDist not symmetric")
	}
}

// TestFigure4Counterexample: BDist is not a metric — the two distinct trees
// of Fig. 4's construction share a branch vector.
func TestFigure4Counterexample(t *testing.T) {
	s := NewSpace(2)
	tx := tree.MustParse("A(B(C(D)),C)")
	ty := tree.MustParse("A(B(C),C(D))")
	px, py := s.Profile(tx), s.Profile(ty)
	if got := BDist(px, py); got != 0 {
		t.Fatalf("BDist = %d, want 0 (the Fig. 4 phenomenon)", got)
	}
	if tree.Equal(tx, ty) {
		t.Fatal("the counterexample trees must differ")
	}
	// The positional filter can nevertheless separate them at pr = 0.
	if got := PosBDist(px, py, 0); got == 0 {
		t.Error("PosBDist at pr=0 should separate the Fig. 4 trees")
	}
}

// TestProfileCountsSumToSize: for every q, each node roots exactly one
// branch, so counts sum to |T|.
func TestProfileCountsSumToSize(t *testing.T) {
	for _, q := range []int{2, 3, 4} {
		s := NewSpace(q)
		for _, tr := range []*tree.Tree{paperT1(), paperT2(), tree.MustParse("x"), tree.New(nil)} {
			p := s.Profile(tr)
			sum := 0
			for _, c := range vectorOf(p) {
				sum += c
			}
			if sum != tr.Size() || p.Size != tr.Size() {
				t.Errorf("q=%d %q: branch count %d, size %d, want %d",
					q, tr, sum, p.Size, tr.Size())
			}
		}
	}
}

// TestQ3WindowPadding: windows below shallow nodes are ε-padded to the full
// 2^q−1 labels.
func TestQ3WindowPadding(t *testing.T) {
	s := NewSpace(3)
	p := s.Profile(tree.MustParse("a(b)"))
	got := branchSet(p)
	want := map[string]int{
		"a|b|ε|ε|ε|ε|ε": 1,
		"b|ε|ε|ε|ε|ε|ε": 1,
	}
	assertSameCounts(t, got, want)
}

func TestKeyLabelsRoundTrip(t *testing.T) {
	seqs := [][]string{
		{"a", "b", "ε"},
		{"", "x:y", "3:a"},
		{"label with spaces", "ε", "ε"},
	}
	for _, seq := range seqs {
		var key []byte
		for _, l := range seq {
			key = appendLabel(key, l)
		}
		got := KeyLabels(string(key))
		if len(got) != len(seq) {
			t.Fatalf("KeyLabels(%v) = %v", seq, got)
		}
		for i := range seq {
			if got[i] != seq[i] {
				t.Errorf("KeyLabels round trip: %v -> %v", seq, got)
			}
		}
	}
}

func TestSpaceInterning(t *testing.T) {
	s := NewSpace(2)
	p1 := s.Profile(paperT1())
	before := s.Size()
	p1b := s.Profile(paperT1())
	if s.Size() != before {
		t.Error("re-profiling the same tree grew the space")
	}
	if BDist(p1, p1b) != 0 {
		t.Error("identical trees should have identical vectors")
	}
	// Distinct spaces are incomparable.
	other := NewSpace(2).Profile(paperT1())
	defer func() {
		if recover() == nil {
			t.Error("cross-space BDist should panic")
		}
	}()
	BDist(p1, other)
}

// TestProfileAllParallelMatchesSerial: concurrent profiling produces
// vectors with identical distances (dimension numbering may differ, which
// is invisible through the API).
func TestProfileAllParallelMatchesSerial(t *testing.T) {
	trees := []*tree.Tree{paperT1(), paperT2()}
	for i := 0; i < 40; i++ {
		trees = append(trees, tree.MustParse("a(b(c,d),e)"))
		trees = append(trees, paperT1())
	}
	serialSpace := NewSpace(2)
	serial := serialSpace.ProfileAll(trees)
	parallelSpace := NewSpace(2)
	par := parallelSpace.ProfileAllParallel(trees, 8)
	if len(par) != len(serial) {
		t.Fatalf("%d profiles, want %d", len(par), len(serial))
	}
	for i := range trees {
		for j := range trees {
			if BDist(serial[i], serial[j]) != BDist(par[i], par[j]) {
				t.Fatalf("BDist(%d,%d) differs between serial and parallel", i, j)
			}
		}
	}
	// Worker clamping paths.
	if got := NewSpace(2).ProfileAllParallel(trees[:1], 16); len(got) != 1 {
		t.Error("single-item parallel profiling broken")
	}
	if got := NewSpace(2).ProfileAllParallel(nil, 4); len(got) != 0 {
		t.Error("empty parallel profiling broken")
	}
}

func TestEditLowerBound(t *testing.T) {
	cases := []struct{ bd, q, want int }{
		{0, 2, 0}, {1, 2, 1}, {5, 2, 1}, {6, 2, 2}, {9, 2, 2}, {10, 2, 2},
		{11, 2, 3}, {9, 3, 1}, {10, 3, 2},
	}
	for _, c := range cases {
		if got := EditLowerBound(c.bd, c.q); got != c.want {
			t.Errorf("EditLowerBound(%d, q=%d) = %d, want %d", c.bd, c.q, got, c.want)
		}
	}
}
