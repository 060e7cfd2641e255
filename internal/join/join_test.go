package join

import (
	"reflect"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/editdist"
	"treesim/internal/tree"
)

func joinDataset(n int, seed int64) []*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 12, SizeStd: 4, Labels: 5, Decay: 0.1}
	return datagen.New(spec, seed).Dataset(n, 6)
}

// nestedSelfJoin is the brute-force reference.
func nestedSelfJoin(ts []*tree.Tree, tau int) []Pair {
	var out []Pair
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if d := editdist.EditScript(ts[i], ts[j]).Cost; d <= tau {
				out = append(out, Pair{R: i, S: j, Dist: d})
			}
		}
	}
	return out
}

func TestSelfJoinExact(t *testing.T) {
	ts := joinDataset(60, 61)
	for _, tau := range []int{0, 1, 3, 6} {
		want := nestedSelfJoin(ts, tau)
		got, stats := SelfJoin(ts, tau, Options{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tau=%d: filtered join differs\n got: %v\nwant: %v", tau, got, want)
		}
		if stats.Results != len(want) || stats.Verified > stats.Pairs {
			t.Fatalf("tau=%d: bad stats %+v", tau, stats)
		}
	}
}

func TestSelfJoinPrunes(t *testing.T) {
	ts := joinDataset(100, 62)
	_, stats := SelfJoin(ts, 2, Options{})
	if stats.Verified >= stats.Pairs/2 {
		t.Errorf("join verified %d of %d pairs — filter barely pruning", stats.Verified, stats.Pairs)
	}
}

func TestSelfJoinDeterministicAcrossWorkers(t *testing.T) {
	ts := joinDataset(50, 63)
	a, _ := SelfJoin(ts, 3, Options{Workers: 1})
	b, _ := SelfJoin(ts, 3, Options{Workers: 8})
	if !reflect.DeepEqual(a, b) {
		t.Error("worker count changed the result")
	}
}

func TestTwoSetJoinExact(t *testing.T) {
	rs := joinDataset(40, 64)
	ss := joinDataset(40, 65)
	tau := 4
	var want []Pair
	for i := range rs {
		for j := range ss {
			if d := editdist.EditScript(rs[i], ss[j]).Cost; d <= tau {
				want = append(want, Pair{R: i, S: j, Dist: d})
			}
		}
	}
	got, stats := Join(rs, ss, tau, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("two-set join differs\n got: %v\nwant: %v", got, want)
	}
	if stats.Pairs != 1600 {
		t.Errorf("Pairs = %d, want 1600", stats.Pairs)
	}
}

func TestJoinQ3(t *testing.T) {
	ts := joinDataset(40, 66)
	want := nestedSelfJoin(ts, 2)
	got, _ := SelfJoin(ts, 2, Options{Q: 3})
	if !reflect.DeepEqual(got, want) {
		t.Error("q=3 join lost results")
	}
}

func TestJoinCustomCost(t *testing.T) {
	ts := joinDataset(30, 67)
	c := doubleCost{}
	var want []Pair
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if d := editdist.EditScriptCost(ts[i], ts[j], c).Cost; d <= 4 {
				want = append(want, Pair{R: i, S: j, Dist: d})
			}
		}
	}
	got, _ := SelfJoin(ts, 4, Options{Cost: c})
	if !reflect.DeepEqual(got, want) {
		t.Error("custom-cost join differs from brute force")
	}
}

// doubleCost charges 2 per operation — still ≥ 1 per op, so unit-cost
// lower bounds stay valid.
type doubleCost struct{}

func (doubleCost) Relabel(a, b string) int {
	if a == b {
		return 0
	}
	return 2
}
func (doubleCost) Insert(string) int { return 2 }
func (doubleCost) Delete(string) int { return 2 }

func TestJoinDegenerate(t *testing.T) {
	if got, stats := SelfJoin(nil, 3, Options{}); len(got) != 0 || stats.Pairs != 0 {
		t.Error("empty self-join should be empty")
	}
	one := joinDataset(1, 68)
	if got, _ := SelfJoin(one, 3, Options{}); len(got) != 0 {
		t.Error("singleton self-join should be empty")
	}
	if got, _ := Join(nil, one, 3, Options{}); len(got) != 0 {
		t.Error("empty R join should be empty")
	}
}
