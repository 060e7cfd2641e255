package search

import (
	"bytes"
	"container/heap"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/editdist"
	"treesim/internal/tree"
)

func testDataset(n int, seed int64) []*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 14, SizeStd: 4, Labels: 5, Decay: 0.1}
	return datagen.New(spec, seed).Dataset(n, 5)
}

func allFilters() []*BiBranch {
	return []*BiBranch{
		NewBiBranch(),
		&BiBranch{Q: 3},
		nil, // the sequential scan
	}
}

// TestKNNCompleteness: every filter returns exactly the sequential-scan
// k-NN answer (same distance multiset; the k-th place may tie arbitrarily).
func TestKNNCompleteness(t *testing.T) {
	ts := testDataset(60, 3)
	queries := []*tree.Tree{ts[0], ts[17], ts[59], testDataset(1, 77)[0]}
	base := NewIndex(ts)
	for _, k := range []int{1, 3, 7} {
		for _, q := range queries {
			want, wantStats, _ := base.KNN(context.Background(), q, k)
			if wantStats.Verified != len(ts) {
				t.Fatalf("sequential scan verified %d, want all %d", wantStats.Verified, len(ts))
			}
			for _, f := range allFilters() {
				ix := NewIndex(ts, f)
				got, stats, _ := ix.KNN(context.Background(), q, k)
				if !sameDistances(got, want) {
					t.Fatalf("filter %s k=%d: distances %v, want %v",
						f.Name(), k, dists(got), dists(want))
				}
				if stats.Verified > len(ts) {
					t.Fatalf("filter %s verified more than the dataset", f.Name())
				}
			}
		}
	}
}

// TestRangeCompleteness: range queries return identical result sets for all
// filters (IDs and distances, not just distances).
func TestRangeCompleteness(t *testing.T) {
	ts := testDataset(60, 4)
	queries := []*tree.Tree{ts[2], ts[31], testDataset(1, 88)[0]}
	base := NewIndex(ts)
	for _, tau := range []int{0, 1, 3, 6, 12} {
		for _, q := range queries {
			want, _, _ := base.Range(context.Background(), q, tau)
			for _, f := range allFilters() {
				got, stats, _ := NewIndex(ts, f).Range(context.Background(), q, tau)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("filter %s tau=%d: results %v, want %v",
						f.Name(), tau, got, want)
				}
				if stats.Verified < len(got) {
					t.Fatalf("filter %s verified %d but returned %d results",
						f.Name(), stats.Verified, len(got))
				}
			}
		}
	}
}

// TestBiBranchPrunes: on a clustered dataset the BiBranch filter verifies
// strictly less than the sequential scan for selective queries.
func TestBiBranchPrunes(t *testing.T) {
	ts := testDataset(100, 5)
	q := ts[10]
	_, seq, _ := NewIndex(ts).KNN(context.Background(), q, 3)
	_, bib, _ := NewIndex(ts, NewBiBranch()).KNN(context.Background(), q, 3)
	if bib.Verified >= seq.Verified {
		t.Errorf("BiBranch verified %d, sequential %d — no pruning", bib.Verified, seq.Verified)
	}
	_, seqR, _ := NewIndex(ts).Range(context.Background(), q, 2)
	_, bibR, _ := NewIndex(ts, NewBiBranch()).Range(context.Background(), q, 2)
	if bibR.Verified >= seqR.Verified {
		t.Errorf("range: BiBranch verified %d, sequential %d", bibR.Verified, seqR.Verified)
	}
}

func TestKNNSelfQuery(t *testing.T) {
	ts := testDataset(30, 6)
	ix := NewIndex(ts, NewBiBranch())
	res, _, _ := ix.KNN(context.Background(), ts[7], 1)
	if len(res) != 1 || res[0].Dist != 0 {
		t.Fatalf("1-NN of a dataset member should be itself at distance 0, got %v", res)
	}
}

func TestKNNEdgeCases(t *testing.T) {
	ts := testDataset(10, 7)
	ix := NewIndex(ts, NewBiBranch())
	q := ts[0]
	if res, _, _ := ix.KNN(context.Background(), q, 0); res != nil {
		t.Error("k=0 should return nothing")
	}
	if res, _, _ := ix.KNN(context.Background(), q, 100); len(res) != len(ts) {
		t.Errorf("k>|D| should return all %d, got %d", len(ts), len(res))
	}
	empty := NewIndex(nil, NewBiBranch())
	if res, _, _ := empty.KNN(context.Background(), q, 3); res != nil {
		t.Error("empty index should return nothing")
	}
}

func TestRangeEdgeCases(t *testing.T) {
	ts := testDataset(10, 8)
	ix := NewIndex(ts, NewBiBranch())
	if res, _, _ := ix.Range(context.Background(), ts[0], -1); res != nil {
		t.Error("negative range should return nothing")
	}
	res, _, _ := ix.Range(context.Background(), ts[0], 0)
	found := false
	for _, r := range res {
		if r.ID == 0 {
			found = true
		}
		if r.Dist != 0 {
			t.Errorf("tau=0 returned distance %d", r.Dist)
		}
	}
	if !found {
		t.Error("tau=0 must return the query itself")
	}
}

// TestShardEdgeCases: degenerate domains of the engine's scan — k beyond
// the dataset, duplicate trees tying at the k-th distance, a radius that
// prunes every candidate, a 2-tree index and an empty one. The name dates
// from the sharded scan; a query now runs as a single shard.
func TestShardEdgeCases(t *testing.T) {
	ts := testDataset(10, 33)
	// Duplicates of one tree guarantee distance ties at the k-th place, so
	// the canonical (dist, id) order is observable.
	ts = append(ts, ts[4], ts[4], ts[4])
	ix := NewIndex(ts, NewBiBranch())
	res, stats, err := ix.KNN(context.Background(), ts[4], 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ts) || stats.Results != len(ts) {
		t.Fatalf("k>n returned %d of %d", len(res), len(ts))
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Dist > res[i].Dist ||
			(res[i-1].Dist == res[i].Dist && res[i-1].ID >= res[i].ID) {
			t.Fatalf("results not in canonical (dist, id) order: %v", res)
		}
	}
	// The three duplicates of ts[4] and itself are all at distance 0, and
	// k=2 must keep the two smallest ids among them.
	top2, _, _ := ix.KNN(context.Background(), ts[4], 2)
	if want := []Result{{ID: 4, Dist: 0}, {ID: 10, Dist: 0}}; !reflect.DeepEqual(top2, want) {
		t.Fatalf("tie at k not broken by id: %v, want %v", top2, want)
	}

	// A query far from everything with tau 0 prunes every candidate.
	far := tree.MustParse("zz(zz(zz(zz)))")
	if res, stats, err := ix.Range(context.Background(), far, 0); err != nil || len(res) != 0 || stats.Results != 0 {
		t.Errorf("all-pruned range: res=%v results=%d err=%v", res, stats.Results, err)
	}

	tiny := NewIndex(ts[:2], NewBiBranch())
	if res, _, err := tiny.KNN(context.Background(), ts[0], 2); err != nil || len(res) != 2 {
		t.Errorf("2-tree index: res=%v err=%v, want both trees", res, err)
	}
	if res, _, err := tiny.Range(context.Background(), ts[0], 0); err != nil || len(res) == 0 || res[0].ID != 0 {
		t.Errorf("2-tree index at tau 0: res=%v err=%v, want the query itself first", res, err)
	}
	empty := NewIndex(nil, NewBiBranch())
	if res, _, _ := empty.KNN(context.Background(), ts[0], 3); res != nil {
		t.Error("empty index should return nothing")
	}
	if res, _, _ := empty.Range(context.Background(), ts[0], 3); res != nil {
		t.Error("empty index should return nothing")
	}
}

func TestResultsSorted(t *testing.T) {
	ts := testDataset(50, 9)
	ix := NewIndex(ts, NewBiBranch())
	res, _, _ := ix.KNN(context.Background(), ts[3], 10)
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("k-NN results not sorted by distance")
		}
	}
	resR, _, _ := ix.Range(context.Background(), ts[3], 8)
	for i := 1; i < len(resR); i++ {
		if resR[i].Dist < resR[i-1].Dist {
			t.Fatal("range results not sorted by distance")
		}
	}
}

func TestStats(t *testing.T) {
	ts := testDataset(40, 10)
	ix := NewIndex(ts, NewBiBranch())
	_, st, _ := ix.KNN(context.Background(), ts[0], 3)
	if st.Dataset != 40 {
		t.Errorf("Dataset = %d", st.Dataset)
	}
	if st.AccessedFraction() <= 0 || st.AccessedFraction() > 1 {
		t.Errorf("AccessedFraction = %f", st.AccessedFraction())
	}
	if st.Results != 3 {
		t.Errorf("Results = %d", st.Results)
	}
	var agg Stats
	agg.Add(st)
	agg.Add(st)
	if agg.Verified != 2*st.Verified || agg.Dataset != 80 {
		t.Error("Stats.Add broken")
	}
	if st.String() == "" || st.Total() < 0 {
		t.Error("Stats stringer/total broken")
	}
	if (Stats{}).AccessedFraction() != 0 {
		t.Error("empty stats fraction should be 0")
	}
}

// TestCustomCostModel: the filters' bounds count unit operations, so an
// index keeps its filter only under a cost model that reports every
// operation costs at least 1, and scans sequentially otherwise — either
// way every family answers what the sequential scan answers. The dataset
// holds relabel-only near-duplicates: at distance 0 under free relabels,
// several unit operations away by any filter's bound.
func TestCustomCostModel(t *testing.T) {
	ts := testDataset(30, 11)
	for i := 0; i < 6; i++ {
		dup := ts[i].Clone()
		for j, n := range dup.PreOrder() {
			if j%2 == 0 {
				n.Label = fmt.Sprintf("relabel%d", j)
			}
		}
		ts = append(ts, dup)
	}
	for _, tc := range []struct {
		model      editdist.CostModel
		keepFilter bool
	}{
		{freeRelabels{}, false},
		{twoPerOp{}, true},
	} {
		seq := NewIndex(ts, WithCostModel(tc.model))
		for _, f := range allFilters() {
			ix := NewIndex(ts, f, WithCostModel(tc.model))
			want := "Sequential"
			if tc.keepFilter {
				want = f.Name()
			}
			if ix.Filter().Name() != want {
				t.Fatalf("%T: %s index runs filter %s, want %s", tc.model, f.Name(), ix.Filter().Name(), want)
			}
			for _, q := range ts[:6] {
				wantK, _, _ := seq.KNN(context.Background(), q, 3)
				gotK, _, _ := ix.KNN(context.Background(), q, 3)
				if !reflect.DeepEqual(gotK, wantK) {
					t.Fatalf("%T %s: KNN %v, sequential scan %v", tc.model, f.Name(), gotK, wantK)
				}
				wantR, _, _ := seq.Range(context.Background(), q, 2)
				gotR, _, _ := ix.Range(context.Background(), q, 2)
				if !reflect.DeepEqual(gotR, wantR) {
					t.Fatalf("%T %s: Range %v, sequential scan %v", tc.model, f.Name(), gotR, wantR)
				}
			}
		}
	}

	// A snapshot is written under unit costs; loading it under a model
	// without a minimum must not keep its BiBranch filter either.
	var buf bytes.Buffer
	if err := SaveIndex(&buf, NewIndex(ts, NewBiBranch())); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf, WithCostModel(freeRelabels{}))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Filter().Name() != "Sequential" || loaded.Size() != len(ts) {
		t.Fatalf("loaded under free relabels: filter %s, size %d", loaded.Filter().Name(), loaded.Size())
	}
}

// freeRelabels charges nothing for a relabel and reports no minimum: no
// count of unit operations bounds its distances from below.
type freeRelabels struct{}

func (freeRelabels) Relabel(a, b string) int { return 0 }
func (freeRelabels) Insert(string) int       { return 1 }
func (freeRelabels) Delete(string) int       { return 1 }

// twoPerOp charges at least 2 per operation and says so, so unit-cost
// lower bounds remain valid.
type twoPerOp struct{}

func (twoPerOp) Relabel(a, b string) int {
	if a == b {
		return 0
	}
	return 2
}
func (twoPerOp) Insert(string) int { return 2 }
func (twoPerOp) Delete(string) int { return 3 }
func (twoPerOp) MinOpCost() int    { return 2 }

func TestNilFilterDefaultsToSequential(t *testing.T) {
	ts := testDataset(10, 12)
	ix := NewIndex(ts, nil)
	if ix.Filter().Name() != "Sequential" {
		t.Errorf("nil filter resolved to %q", ix.Filter().Name())
	}
	if ix.Size() != 10 || ix.Tree(3) != ts[3] {
		t.Error("accessors broken")
	}
}

func sameDistances(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

func dists(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Dist
	}
	return out
}

func TestFilterNames(t *testing.T) {
	want := []string{"BiBranch", "BiBranch", "Sequential"}
	for i, f := range allFilters() {
		if f.Name() != want[i] {
			t.Errorf("filter %d: Name = %q, want %q", i, f.Name(), want[i])
		}
	}
}

// TestParseFilter: the one name grammar the command-line tools share.
// "none" is the nil filter, and a level outside [MinQ, MaxQ] is refused
// in every spelling, so a server never writes a snapshot it cannot load.
func TestParseFilter(t *testing.T) {
	for name, want := range map[string]*BiBranch{
		"bibranch":     {Q: 3},
		"bibranch-q4":  {Q: 4},
		"bibranch-q16": {Q: 16},
		"none":         nil,
	} {
		got, err := ParseFilter(name, 3)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseFilter(%q, 3) = %#v, %v; want %#v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "bogus", "seq", "histo", "bibranch-nopos", "bibranch-q", "bibranch-q1", "bibranch-q17", "bibranch-q3x", "BiBranch"} {
		if f, err := ParseFilter(name, 2); err == nil {
			t.Errorf("ParseFilter(%q) = %#v, want an error", name, f)
		}
	}
	// The replayed baselines are refused with a pointer to where they live.
	for _, name := range []string{"histo", "bibranch-nopos"} {
		if _, err := ParseFilter(name, 2); err == nil || !strings.Contains(err.Error(), "treesim-analyze") {
			t.Errorf("ParseFilter(%q) error %v does not point to treesim-analyze", name, err)
		}
	}
	for _, q := range []int{0, 1, 17} {
		if f, err := ParseFilter("bibranch", q); err == nil {
			t.Errorf("ParseFilter(bibranch, %d) = %#v, want an error", q, f)
		}
	}
}

// TestBiBranchDefaultQ: the zero value of Q selects the paper's two-level
// branches.
func TestBiBranchDefaultQ(t *testing.T) {
	p := payloadOf(NewIndex(testDataset(5, 30), &BiBranch{}).cut().segs[0])
	if p.space.Q() != 2 {
		t.Errorf("default Q resolved to %d", p.space.Q())
	}
	if len(p.profiles) != 5 {
		t.Errorf("%d profiles, want 5", len(p.profiles))
	}
}

func TestMaxHeapInterface(t *testing.T) {
	h := &maxHeap{}
	heap.Push(h, Result{ID: 1, Dist: 5})
	heap.Push(h, Result{ID: 2, Dist: 9})
	heap.Push(h, Result{ID: 3, Dist: 1})
	if h.top().Dist != 9 {
		t.Errorf("top = %d, want 9", h.top().Dist)
	}
	if got := heap.Pop(h).(Result); got.Dist != 9 {
		t.Errorf("Pop = %d, want 9", got.Dist)
	}
	if h.top().Dist != 5 {
		t.Errorf("after pop top = %d, want 5", h.top().Dist)
	}
}

// TestKNNAgainstBruteforce cross-checks distances returned by KNN against
// direct edit distance computation.
func TestKNNDistancesExact(t *testing.T) {
	ts := testDataset(25, 13)
	ix := NewIndex(ts, NewBiBranch())
	q := testDataset(1, 14)[0]
	res, _, _ := ix.KNN(context.Background(), q, 5)
	for _, r := range res {
		if want := fullDistance(q, ts[r.ID]); r.Dist != want {
			t.Errorf("result %d: distance %d, want %d", r.ID, r.Dist, want)
		}
	}
}

// TestParallelProfilesMatchSerial: parallel index construction produces
// distances identical to serial construction.
func TestParallelProfilesMatchSerial(t *testing.T) {
	ts := testDataset(100, 44)
	ixP := NewIndex(ts, NewBiBranch()) // parallel build inside Index
	ixS := NewIndex(ts, NewBiBranch())
	for _, q := range []*tree.Tree{ts[7], ts[77]} {
		a, _, _ := ixP.KNN(context.Background(), q, 5)
		b, _, _ := ixS.KNN(context.Background(), q, 5)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("parallel vs serial build differ: %v vs %v", a, b)
		}
	}
}
