package search

import (
	"context"
	"math/bits"
	"reflect"
	"testing"

	"treesim/internal/tree"
)

// TestBoundedRefineInvariance is the bounded verification engine's
// exactness certificate: across every filter family, several shard counts
// and both query kinds, an index refining against the live cutoff returns
// byte-identical results to the sequential-scan reference, which computes
// every distance in full (the band-off program over every tree, (dist, id)
// order). A range query verifies every candidate, so its counters must add
// up too. A k-NN query's first verifications run the doubling search,
// whose cells may pass FullCells by the editdist.Metrics bound.
func TestBoundedRefineInvariance(t *testing.T) {
	ts := testDataset(90, 53)
	queries := []*tree.Tree{ts[3], ts[60], testDataset(1, 77)[0]}
	trees := make(map[int]*tree.Tree, len(ts))
	largest := 0
	for id, tr := range ts {
		trees[id] = tr
		largest = max(largest, tr.Size())
	}
	for _, q := range queries {
		largest = max(largest, q.Size())
	}
	// ⌊log₂((|q|+|t|)/8)⌋ + 3 runs per pair at most, none above FullCells.
	searchRuns := int64(bits.Len(uint(2*largest/8)) + 2)
	for _, f := range allFilters() {
		for _, S := range []int{1, 3, 0} {
			ix := NewIndex(ts, WithFilter(f.Fresh()), WithShards(S))
			for qi, q := range queries {
				for _, k := range []int{1, 5, 12} {
					want := bruteKNNAnswers(trees, q, k)
					got, stats, err := ix.KNN(context.Background(), q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s S=%d q=%d k=%d: bounded %v, full scan %v", f.Name(), S, qi, k, got, want)
					}
					if stats.DPCells > searchRuns*stats.DPCellsFull {
						t.Fatalf("%s S=%d q=%d k=%d: touched %d cells > %d × full %d",
							f.Name(), S, qi, k, stats.DPCells, searchRuns, stats.DPCellsFull)
					}
				}
				for _, tau := range []int{0, 2, 6} {
					want := bruteRangeAnswers(trees, q, tau)
					got, stats, err := ix.Range(context.Background(), q, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s S=%d q=%d tau=%d: bounded %v, full scan %v", f.Name(), S, qi, tau, got, want)
					}
					if stats.Verified != stats.Candidates ||
						stats.Results != len(want) ||
						stats.FalsePositives != stats.Verified-len(want) {
						t.Fatalf("%s S=%d q=%d tau=%d: stats %+v do not add up to %d results",
							f.Name(), S, qi, tau, stats, len(want))
					}
					if stats.Verified > 0 && stats.DPCells >= stats.DPCellsFull &&
						stats.RefineAborted+stats.PrecheckRejects > 0 {
						t.Fatalf("%s S=%d q=%d tau=%d: rejections without cell savings: %+v",
							f.Name(), S, qi, tau, stats)
					}
				}
			}
		}
	}
}

// TestBoundedRefineCountersFire: on a realistic workload the bounded
// engine must actually exercise both cut-short paths — pre-check
// rejections and DP early aborts — and touch strictly fewer cells than
// full verification would. (The exact split is data-dependent; firing at
// all is the regression being pinned.) Most false positives there are
// disproven before the tree DP, by an O(n) pre-check or the sequence
// bound, so the dataset also holds a(a,a(a)), the mirror image of the
// range query a(a(a),a) at τ=1: size, height, label histogram and both
// label sequences agree, the distance is 2, and only the DP can prove it.
func TestBoundedRefineCountersFire(t *testing.T) {
	ts := append(testDataset(200, 9), tree.MustParse("a(a,a(a))"))
	ix := NewIndex(ts, NewBiBranch())
	var agg Stats
	for qi := 0; qi < 8; qi++ {
		_, st, err := ix.KNN(context.Background(), ts[qi*20], 3)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(st)
		_, st, err = ix.Range(context.Background(), ts[qi*20+7], 2)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(st)
	}
	if agg.PrecheckRejects == 0 {
		t.Errorf("no pre-check rejections across the workload: %+v", agg)
	}
	_, st, err := ix.Range(context.Background(), tree.MustParse("a(a(a),a)"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.RefineAborted != 1 {
		t.Errorf("mirrored pair at τ=1: %d DP aborts, want 1: %+v", st.RefineAborted, st)
	}
	agg.Add(st)
	if agg.RefineAborted == 0 {
		t.Errorf("no DP early aborts across the workload: %+v", agg)
	}
	if agg.DPCells >= agg.DPCellsFull {
		t.Errorf("bounded refine touched %d of %d full cells; want strictly fewer", agg.DPCells, agg.DPCellsFull)
	}
	// a(b,c) against a(c,b) passes every O(n) pre-check, but both label
	// sequences are 2 apart: the sequence bound rejects the pair at τ=1
	// with no DP, and it counts as a pre-check rejection.
	_, st, err = NewIndex([]*tree.Tree{tree.MustParse("a(c,b)")}, NewNone()).
		Range(context.Background(), tree.MustParse("a(b,c)"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Verified != 1 || st.PrecheckRejects != 1 || st.RefineAborted != 0 || st.DPCells != 0 {
		t.Errorf("sequence-bound rejection: %+v, want one pre-check rejection and no DP cells", st)
	}
}
