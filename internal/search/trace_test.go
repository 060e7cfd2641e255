package search

import (
	"context"
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
// candidate/verified counts matching the returned Stats.
func TestKNNSpans(t *testing.T) {
	ts := traceDataset(t, 60)
	// WithShards(1) pins the sequential span shape: sharded queries hang
	// bounder attrs off shard[i] children instead of the filter span.
	ix := NewIndex(ts, NewBiBranch(), WithShards(1))

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
	if got := filter.Attrs["candidates"]; got != int64(60) {
		t.Errorf("filter candidates %v, want 60", got)
	}
	if got := refine.Attrs["verified"]; got != int64(stats.Verified) {
		t.Errorf("refine verified attr %v, stats say %d", got, stats.Verified)
	}
	if got := refine.Attrs["results"]; got != int64(stats.Results) {
		t.Errorf("refine results attr %v, stats say %d", got, stats.Results)
	}
	// pruned + verified covers the whole candidate order, and the DP work
	// is at least |q|·|t_min| per verification (every tree has ≥1 node).
	if got := refine.Attrs["pruned"]; got != int64(60-stats.Verified) {
		t.Errorf("refine pruned attr %v, want %d", got, 60-stats.Verified)
	}
	cells, _ := refine.Attrs["dp_cells"].(int64)
	if stats.Verified > 0 && cells < int64(stats.Verified) {
		t.Errorf("dp_cells %d below verified count %d", cells, stats.Verified)
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

// TestPivotStageAttrs: the pivot cascade reports its screen counters on
// the filter span, and they account for every candidate it bounded.
func TestPivotStageAttrs(t *testing.T) {
	ts := traceDataset(t, 80)
	ix := NewIndex(ts, NewPivotBiBranch(), WithShards(1))

	root := obs.New("query")
	_, _, err := ix.Range(obs.NewContext(context.Background(), root), ts[7], 2)
	if err != nil {
		t.Fatal(err)
	}
	snap := root.Snapshot()
	filter, ok := childByName(snap, "filter")
	if !ok {
		t.Fatalf("no filter span in %+v", snap)
	}
	pruned, _ := filter.Attrs["pivot_pruned"].(int64)
	evals, _ := filter.Attrs["stage2_evals"].(int64)
	if pruned+evals != int64(len(ts)) {
		t.Errorf("pivot_pruned %d + stage2_evals %d != dataset %d (attrs %v)",
			pruned, evals, len(ts), filter.Attrs)
	}
	if filter.Attrs["pivots"] != int64(8) {
		t.Errorf("pivots attr %v, want 8", filter.Attrs["pivots"])
	}
}

// TestVPTreeSpan: the VP-tree candidate enumeration appears as a child of
// the filter span with its candidate count and distance-evaluation attr.
func TestVPTreeSpan(t *testing.T) {
	ts := traceDataset(t, 100)
	ix := NewIndex(ts, NewVPBiBranch(), WithShards(1))

	root := obs.New("query")
	res, stats, err := ix.Range(obs.NewContext(context.Background(), root), ts[5], 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := root.Snapshot()
	filter, ok := childByName(snap, "filter")
	if !ok {
		t.Fatalf("no filter span in %+v", snap)
	}
	vp, ok := childByName(filter, "vptree")
	if !ok {
		t.Fatalf("no vptree span under filter: %+v", filter)
	}
	cands, _ := vp.Attrs["candidates"].(int64)
	if cands < int64(len(res)) || cands < int64(stats.Verified) {
		t.Errorf("vptree candidates %d below results %d / verified %d", cands, len(res), stats.Verified)
	}
	evals, _ := filter.Attrs["vptree_dist_evals"].(int64)
	if evals <= 0 || evals > int64(len(ts)) {
		t.Errorf("vptree_dist_evals %d out of (0, %d]", evals, len(ts))
	}
}
