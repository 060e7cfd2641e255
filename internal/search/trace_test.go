package search

import (
	"context"
	"strings"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/obs"
	"treesim/internal/tree"
)

func traceDataset(t *testing.T, n int) []*tree.Tree {
	t.Helper()
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 12, SizeStd: 4, Labels: 6, Decay: 0.1}
	return datagen.New(spec, 11).Dataset(n, 5)
}

// childByName finds a direct child span by name.
func childByName(sn obs.SpanSnapshot, name string) (obs.SpanSnapshot, bool) {
	for _, c := range sn.Children {
		if c.Name == name {
			return c, true
		}
	}
	return obs.SpanSnapshot{}, false
}

// TestKNNSpans: a traced KNN query produces filter and refine
// children whose durations fit the root and whose attrs carry the
// candidate/verified counts matching the returned Stats: the filter span's
// bounded is every visible tree, its candidates the funnel's, and its
// pruned_* attributes and candidates add up to the dataset.
func TestKNNSpans(t *testing.T) {
	ts := traceDataset(t, 60)
	ix := NewIndex(ts, NewBiBranch())

	root := obs.New("query")
	ctx := obs.NewContext(context.Background(), root)
	_, stats, err := ix.KNN(ctx, ts[3], 4)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	snap := root.Snapshot()
	filter, ok := childByName(snap, "filter")
	if !ok {
		t.Fatalf("no filter span in %+v", snap)
	}
	refine, ok := childByName(snap, "refine")
	if !ok {
		t.Fatalf("no refine span in %+v", snap)
	}
	if filter.DurUS+refine.DurUS > snap.DurUS {
		t.Errorf("stages %d+%dus exceed root %dus", filter.DurUS, refine.DurUS, snap.DurUS)
	}
	if got := filter.Attrs["bounded"]; got != int64(60) {
		t.Errorf("filter bounded %v, want 60", got)
	}
	if got := filter.Attrs["candidates"]; got != int64(stats.Candidates) {
		t.Errorf("filter candidates %v, stats say %d", got, stats.Candidates)
	}
	// The funnel attributes and the candidates account for every tree.
	accounted, _ := filter.Attrs["candidates"].(int64)
	for attr, want := range map[string]int{
		"pruned_size": stats.Pruned.Size, "pruned_bdist": stats.Pruned.BDist,
		"pruned_label": stats.Pruned.Label, "pruned_positional": stats.Pruned.Positional,
		"pruned_sequence": stats.Pruned.Sequence,
	} {
		got, _ := filter.Attrs[attr].(int64)
		if got != int64(want) {
			t.Errorf("filter %s attr %v, funnel says %d", attr, got, want)
		}
		accounted += got
	}
	if accounted != int64(stats.Dataset) {
		t.Errorf("pruned_* + candidates = %d, dataset %d", accounted, stats.Dataset)
	}
	if got := refine.Attrs["verified"]; got != int64(stats.Verified) {
		t.Errorf("refine verified attr %v, stats say %d", got, stats.Verified)
	}
	if got := refine.Attrs["results"]; got != int64(stats.Results) {
		t.Errorf("refine results attr %v, stats say %d", got, stats.Results)
	}
	// pruned + verified covers the whole candidate order, and every
	// verification either fills at least one DP cell (every tree has ≥1
	// node) or is certified with none.
	if got := refine.Attrs["pruned"]; got != int64(60-stats.Verified) {
		t.Errorf("refine pruned attr %v, want %d", got, 60-stats.Verified)
	}
	if got := refine.Attrs["certified"]; got != int64(stats.Certified) {
		t.Errorf("refine certified attr %v, stats say %d", got, stats.Certified)
	}
	cells, _ := refine.Attrs["dp_cells"].(int64)
	if stats.Verified > 0 && cells+int64(stats.Certified) < int64(stats.Verified) {
		t.Errorf("dp_cells %d + certified %d below verified count %d", cells, stats.Certified, stats.Verified)
	}
}

// TestRangeSpansUntraced: queries without a span in the context
// still work (the nil-span fast path) and produce identical results.
func TestRangeSpansUntraced(t *testing.T) {
	ts := traceDataset(t, 40)
	ix := NewIndex(ts, NewBiBranch())
	r1, s1, err := ix.Range(context.Background(), ts[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	root := obs.New("query")
	r2, s2, err := ix.Range(obs.NewContext(context.Background(), root), ts[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) || s1.Verified != s2.Verified {
		t.Fatalf("traced query changed results: %v/%v vs %v/%v", len(r1), s1.Verified, len(r2), s2.Verified)
	}
}

// TestShardSpans: a query of either kind runs its filter pass in one
// piece, so the filter span has no shard[i] children and itself carries
// the totals: the visible trees bounded, the segments and the query's
// candidates. The index has deletes, so bounded is Stats.Dataset, not the
// positions the pass covers.
func TestShardSpans(t *testing.T) {
	ts := testDataset(50, 37)
	ix := NewIndex(ts, NewBiBranch())
	for _, id := range []int{0, 5, 6, 7, 19, 33, 49} {
		ix.Delete(id)
	}
	live := len(ts) - 7

	for _, kind := range []string{"knn", "range"} {
		root := obs.New("query")
		ctx := obs.NewContext(context.Background(), root)
		var (
			stats Stats
			err   error
		)
		if kind == "knn" {
			_, stats, err = ix.KNN(ctx, ts[2], 3)
		} else {
			_, stats, err = ix.Range(ctx, ts[2], 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		root.End()

		filter, ok := childByName(root.Snapshot(), "filter")
		if !ok {
			t.Fatalf("%s: no filter span in %+v", kind, root.Snapshot())
		}
		if stats.Dataset != live {
			t.Fatalf("%s: Stats.Dataset %d, want %d", kind, stats.Dataset, live)
		}
		if got := filter.Attrs["bounded"]; got != int64(live) {
			t.Errorf("%s: filter bounded %v, want %d", kind, got, live)
		}
		if got := filter.Attrs["segments"]; got != int64(len(ix.cut().segs)) {
			t.Errorf("%s: filter segments %v, want %d", kind, got, len(ix.cut().segs))
		}
		if got := filter.Attrs["candidates"]; got != int64(stats.Candidates) {
			t.Errorf("%s: filter candidates %v, stats say %d", kind, got, stats.Candidates)
		}
		for _, c := range filter.Children {
			if strings.HasPrefix(c.Name, "shard[") {
				t.Fatalf("%s: filter span has a %s child: %+v", kind, c.Name, filter)
			}
		}
	}
}
