package tree

import (
	"reflect"
	"testing"
)

func TestLabelCounts(t *testing.T) {
	got := paperT1().LabelCounts()
	want := map[string]int{"a": 1, "b": 2, "c": 2, "d": 2, "e": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LabelCounts = %v, want %v", got, want)
	}
}

func TestDegreeCounts(t *testing.T) {
	got := paperT1().DegreeCounts()
	// a has 3 children, each b has 2, the five leaves have 0.
	want := map[int]int{3: 1, 2: 2, 0: 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DegreeCounts = %v, want %v", got, want)
	}
}

func TestHeightCounts(t *testing.T) {
	got := paperT1().HeightCounts()
	// Leaves have height 1 (×5), the b's height 2 (×2), a height 3.
	want := map[int]int{1: 5, 2: 2, 3: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HeightCounts = %v, want %v", got, want)
	}
}

// TestHistogramSumsEqualSize: every histogram distributes exactly the |T|
// nodes.
func TestHistogramSumsEqualSize(t *testing.T) {
	for _, tr := range []*Tree{paperT1(), paperT2(), MustParse("a")} {
		n := tr.Size()
		sum := func(m map[int]int) int {
			s := 0
			for _, v := range m {
				s += v
			}
			return s
		}
		if s := sum(tr.DegreeCounts()); s != n {
			t.Errorf("degree histogram sums to %d, want %d", s, n)
		}
		if s := sum(tr.HeightCounts()); s != n {
			t.Errorf("height histogram sums to %d, want %d", s, n)
		}
		ls := 0
		for _, v := range tr.LabelCounts() {
			ls += v
		}
		if ls != n {
			t.Errorf("label histogram sums to %d, want %d", ls, n)
		}
	}
}
