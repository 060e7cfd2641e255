package histogram

import (
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/editdist"
	"treesim/internal/tree"
)

func paperT1() *tree.Tree { return tree.MustParse("a(b(c,d),b(c,d),e)") }
func paperT2() *tree.Tree { return tree.MustParse("a(b(c,d,b(e)),c,d,e)") }

func TestProfileFields(t *testing.T) {
	p := NewProfileConfig(paperT1(), Config{})
	if p.Size != 8 || p.Height != 3 {
		t.Errorf("Size=%d Height=%d, want 8, 3", p.Size, p.Height)
	}
	if p.Label["b"] != 2 || p.Degree[3] != 1 || p.HeightHist[1] != 5 {
		t.Errorf("histograms wrong: %+v", p)
	}
}

func TestBoundsPaperPair(t *testing.T) {
	a, b := NewProfileConfig(paperT1(), Config{}), NewProfileConfig(paperT2(), Config{})
	// Labels: T1 {a:1,b:2,c:2,d:2,e:1}, T2 {a:1,b:2,c:2,d:2,e:2} → L1=1 → ceil(1/2)=1.
	if got := LabelBound(a, b); got != 1 {
		t.Errorf("LabelBound = %d, want 1", got)
	}
	// Degrees: T1 {3:1,2:2,0:5}, T2 {4:1,3:1,1:1,0:6} → L1 = 1+1+2+1+1 = wait:
	// |3:1−1| =0? T2 has 3:1 (b with 3 children). T1 3:1. diff 0.
	// 2: T1 2, T2 0 → 2. 0: |5−6| = 1. 4: T2 1 → 1. 1: T2 1 → 1. Total 5 → ceil(5/3)=2.
	if got := DegreeBound(a, b); got != 2 {
		t.Errorf("DegreeBound = %d, want 2", got)
	}
	// Heights: T1 height 3, T2 height 4 → 1.
	if got := HeightBound(a, b); got != 1 {
		t.Errorf("HeightBound = %d, want 1", got)
	}
	if got := SizeBound(a, b); got != 1 {
		t.Errorf("SizeBound = %d, want 1", got)
	}
	if got := LowerBound(a, b); got != 2 {
		t.Errorf("LowerBound = %d, want 2", got)
	}
}

func TestLowerBoundIdentity(t *testing.T) {
	p := NewProfileConfig(paperT1(), Config{})
	if got := LowerBound(p, p); got != 0 {
		t.Errorf("self lower bound = %d", got)
	}
}

func TestLowerBoundSymmetric(t *testing.T) {
	a, b := NewProfileConfig(paperT1(), Config{}), NewProfileConfig(paperT2(), Config{})
	if LowerBound(a, b) != LowerBound(b, a) {
		t.Error("LowerBound not symmetric")
	}
}

// TestSoundness: every component bound and the combined bound never exceed
// the true edit distance, on random related and unrelated tree pairs.
func TestSoundness(t *testing.T) {
	spec := datagen.Spec{FanoutMean: 2.5, FanoutStd: 1, SizeMean: 12, SizeStd: 4, Labels: 4, Decay: 0.1}
	g := datagen.New(spec, 17)
	for trial := 0; trial < 150; trial++ {
		t1 := g.Seed()
		var t2 *tree.Tree
		if trial%2 == 0 {
			t2 = g.Seed()
		} else {
			t2 = g.RandomEdits(t1, 1+trial%6)
		}
		ed := editdist.Distance(t1, t2)
		a, b := NewProfileConfig(t1, Config{}), NewProfileConfig(t2, Config{})
		checks := []struct {
			name string
			got  int
		}{
			{"label", LabelBound(a, b)},
			{"degree", DegreeBound(a, b)},
			{"height", HeightBound(a, b)},
			{"size", SizeBound(a, b)},
			{"combined", LowerBound(a, b)},
		}
		for _, c := range checks {
			if c.got > ed {
				t.Fatalf("%s bound %d exceeds EDist %d for\n  %s\n  %s",
					c.name, c.got, ed, t1, t2)
			}
		}
	}
}

// TestFoldingSoundAndContractive: folded bounds never exceed the unbounded
// bounds (folding is an L1 contraction) and stay below the edit distance.
func TestFoldingSoundAndContractive(t *testing.T) {
	spec := datagen.Spec{FanoutMean: 2.5, FanoutStd: 1, SizeMean: 14, SizeStd: 4, Labels: 12, Decay: 0.1}
	g := datagen.New(spec, 23)
	cfgs := []Config{
		EqualSpace(9),
		EqualSpace(30),
		{LabelBins: 2, DegreeBins: 2, HeightBins: 2},
		{LabelBins: 5}, // fold labels only
	}
	for trial := 0; trial < 80; trial++ {
		t1 := g.Seed()
		t2 := g.RandomEdits(t1, 1+trial%5)
		ed := editdist.Distance(t1, t2)
		fullA, fullB := NewProfileConfig(t1, Config{}), NewProfileConfig(t2, Config{})
		fullBound := LowerBound(fullA, fullB)
		for _, cfg := range cfgs {
			a := NewProfileConfig(t1, cfg)
			b := NewProfileConfig(t2, cfg)
			folded := LowerBound(a, b)
			if folded > ed {
				t.Fatalf("cfg %+v: folded bound %d exceeds EDist %d for\n  %s\n  %s",
					cfg, folded, ed, t1, t2)
			}
			if folded > fullBound {
				t.Fatalf("cfg %+v: folded bound %d above unbounded bound %d",
					cfg, folded, fullBound)
			}
		}
	}
}

func TestFoldingPreservesMass(t *testing.T) {
	tr := paperT2()
	p := NewProfileConfig(tr, EqualSpace(9))
	sum := 0
	for _, c := range p.Label {
		sum += c
	}
	if sum != tr.Size() {
		t.Errorf("folded label histogram sums to %d, want %d", sum, tr.Size())
	}
	sum = 0
	for _, c := range p.Degree {
		sum += c
	}
	if sum != tr.Size() {
		t.Errorf("clamped degree histogram sums to %d, want %d", sum, tr.Size())
	}
}

func TestEqualSpaceSplit(t *testing.T) {
	cfg := EqualSpace(30)
	if cfg.LabelBins+cfg.DegreeBins+cfg.HeightBins != 30 {
		t.Errorf("bins do not sum to the budget: %+v", cfg)
	}
	tiny := EqualSpace(1) // floors at 6
	if tiny.LabelBins < 2 || tiny.DegreeBins < 2 || tiny.HeightBins < 2 {
		t.Errorf("tiny budget produced %+v", tiny)
	}
}

func TestEmptyTree(t *testing.T) {
	e := NewProfileConfig(tree.New(nil), Config{})
	p := NewProfileConfig(paperT1(), Config{})
	if got := LowerBound(e, p); got > paperT1().Size() {
		t.Errorf("bound vs empty = %d exceeds |T| = %d", got, paperT1().Size())
	}
	if LowerBound(e, e) != 0 {
		t.Error("empty-empty bound non-zero")
	}
}
