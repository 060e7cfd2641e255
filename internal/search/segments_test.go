package search

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"treesim/internal/branch"
	"treesim/internal/editdist"
	"treesim/internal/tree"
)

// bruteAnswers computes the exact (dist, id)-ordered answers over the
// visible trees: the ground truth every segment layout must reproduce.
func bruteAnswers(trees map[int]*tree.Tree, q *tree.Tree) []Result {
	var out []Result
	for id, t := range trees {
		out = append(out, Result{ID: id, Dist: fullDistance(q, t)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// fullDistance is the ground-truth distance: the band-off Zhang–Shasha
// program behind an edit script, not Distance, whose doubling search is
// what the engine's first k-NN verifications run.
func fullDistance(q, t *tree.Tree) int { return editdist.EditScript(q, t).Cost }

func bruteKNNAnswers(trees map[int]*tree.Tree, q *tree.Tree, k int) []Result {
	all := bruteAnswers(trees, q)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func bruteRangeAnswers(trees map[int]*tree.Tree, q *tree.Tree, tau int) []Result {
	var out []Result
	for _, r := range bruteAnswers(trees, q) {
		if r.Dist <= tau {
			out = append(out, r)
		}
	}
	return out
}

// TestSegmentLayoutInvariance is the storage engine's core correctness
// property: the physical layout of the dataset — one base segment, many
// small segments before compaction, a large live memtable, one merged
// segment after — never changes a query's (dist, id) answers, for every
// filter family, with tombstoned ids never appearing. Nor does it change
// the work: every segment, the memtable included, runs the same tiers
// exactly, so every Stats field but the two times equals the one-segment
// layout's.
func TestSegmentLayoutInvariance(t *testing.T) {
	const n = 60
	all := testDataset(n, 71)
	deleted := []int{2, 13, 27, 39, 59}
	tombed := make(map[int]bool)
	for _, id := range deleted {
		tombed[id] = true
	}
	visible := make(map[int]*tree.Tree)
	for id, tr := range all {
		if !tombed[id] {
			visible[id] = tr
		}
	}
	queries := append([]*tree.Tree{all[0], all[27], all[50]}, testDataset(2, 72)...)

	layouts := map[string]func(f *BiBranch) *Index{
		"one-segment": func(f *BiBranch) *Index {
			return NewIndex(all, f)
		},
		"multi-segment": func(f *BiBranch) *Index {
			ix := NewIndex(all[:10], f, WithMemtableSize(7), WithCompactionThreshold(-1))
			for _, tr := range all[10:] {
				ix.Insert(tr)
			}
			return ix
		},
		"memtable": func(f *BiBranch) *Index {
			ix := NewIndex(all[:10], f, WithMemtableSize(2*n), WithCompactionThreshold(-1))
			for _, tr := range all[10:] {
				ix.Insert(tr)
			}
			return ix
		},
		"compacted": func(f *BiBranch) *Index {
			ix := NewIndex(all[:10], f, WithMemtableSize(7), WithCompactionThreshold(-1))
			for _, tr := range all[10:] {
				ix.Insert(tr)
			}
			ix.Seal()
			if !ix.Compact() {
				t.Fatal("compaction did not run")
			}
			return ix
		},
	}

	// untimed is a query's Stats but for the two times.
	untimed := func(st Stats) Stats {
		st.FilterTime, st.RefineTime = 0, 0
		return st
	}
	names := []string{"one-segment", "multi-segment", "memtable", "compacted"}
	for fi, f := range allFilters() {
		// The one-segment layout's Stats by query, k-NN then range.
		var base [][2]Stats
		for _, lname := range names {
			build := layouts[lname]
			name := fmt.Sprintf("%s#%d/%s", f.Name(), fi, lname)
			ix := build(f)
			for _, id := range deleted {
				if !ix.Delete(id) {
					t.Fatalf("%s: delete %d refused", name, id)
				}
			}
			if lname == "compacted" {
				// Deleting after the first compaction and compacting again
				// exercises tombstone resolution too.
				if !ix.Compact() {
					t.Fatalf("%s: second compaction did not run", name)
				}
			}
			if ix.Live() != n-len(deleted) {
				t.Fatalf("%s: live %d, want %d", name, ix.Live(), n-len(deleted))
			}
			for qi, q := range queries {
				got, kst, _ := ix.KNN(context.Background(), q, 5)
				want := bruteKNNAnswers(visible, q, 5)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: query %d KNN = %v, want %v", name, qi, got, want)
				}
				gr, rst, _ := ix.Range(context.Background(), q, 3)
				wr := bruteRangeAnswers(visible, q, 3)
				st := [2]Stats{untimed(kst), untimed(rst)}
				if lname == "one-segment" {
					base = append(base, st)
				} else if !reflect.DeepEqual(st, base[qi]) {
					t.Fatalf("%s: query %d Stats (k-NN, range)\n%#v\none segment\n%#v", name, qi, st, base[qi])
				}
				if len(gr) == 0 && len(wr) == 0 {
					continue
				}
				if !reflect.DeepEqual(gr, wr) {
					t.Fatalf("%s: query %d Range = %v, want %v", name, qi, gr, wr)
				}
				for _, r := range append(got, gr...) {
					if tombed[r.ID] {
						t.Fatalf("%s: tombstoned id %d in results", name, r.ID)
					}
				}
			}
		}
	}
}

// TestSegmentedStatsAndExplain: the merged stats and EXPLAIN record of a
// multi-segment query describe the whole cut — visible dataset size,
// segment count, and bounds from every segment.
func TestSegmentedStatsAndExplain(t *testing.T) {
	all := testDataset(30, 73)
	ix := NewIndex(all[:10], NewBiBranch(), WithMemtableSize(8), WithCompactionThreshold(-1))
	for _, tr := range all[10:] {
		ix.Insert(tr)
	}
	ix.Delete(4)
	var ex *Explain
	res, stats, err := ix.KNN(context.Background(), all[20], 3, WithExplain(&ex))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if stats.Dataset != 29 {
		t.Fatalf("stats.Dataset = %d, want 29 (live)", stats.Dataset)
	}
	if ex.Segments < 2 {
		t.Fatalf("explain.Segments = %d, want ≥ 2", ex.Segments)
	}
	if ex.Bounds.Computed != 29 {
		t.Fatalf("explain bounds over %d trees, want 29", ex.Bounds.Computed)
	}
}

// TestEpochAdvancesOnWrites: the epoch — the query-cache invalidation
// key — moves on inserts, deletes, seals and compactions, and stays put
// across pure queries.
func TestEpochAdvancesOnWrites(t *testing.T) {
	ix := NewIndex(testDataset(10, 74), NewBiBranch(), WithMemtableSize(4), WithCompactionThreshold(-1))
	e0 := ix.StoreStats().Epoch
	ix.KNN(context.Background(), testDataset(1, 75)[0], 2)
	if ix.StoreStats().Epoch != e0 {
		t.Fatal("query advanced the epoch")
	}
	ix.Insert(testDataset(1, 76)[0])
	e1 := ix.StoreStats().Epoch
	if e1 <= e0 {
		t.Fatal("insert did not advance the epoch")
	}
	ix.Delete(3)
	e2 := ix.StoreStats().Epoch
	if e2 <= e1 {
		t.Fatal("delete did not advance the epoch")
	}
	ix.Seal()
	e3 := ix.StoreStats().Epoch
	if e3 <= e2 {
		t.Fatal("seal did not advance the epoch")
	}
	if !ix.Compact() {
		t.Fatal("compaction did not run")
	}
	if ix.StoreStats().Epoch <= e3 {
		t.Fatal("compaction did not advance the epoch")
	}
}

// TestCompactionFreesTheBuild: once compaction replaces the segment an
// index was built with, nothing the index holds reaches that segment's
// branch space, profiles or postings: the collector frees them.
func TestCompactionFreesTheBuild(t *testing.T) {
	ts := testDataset(40, 97)
	ix := NewIndex(ts, NewBiBranch(), WithCompactionThreshold(-1))
	freed := make(chan struct{})
	runtime.SetFinalizer(payloadOf(ix.cut().segs[0]).space, func(*branch.Space) { close(freed) })
	for id := range ts {
		ix.Delete(id)
	}
	ix.Insert(ts[0])
	ix.Seal()
	if !ix.Compact() {
		t.Fatal("compaction did not run")
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(time.Millisecond):
		}
	}
	runtime.KeepAlive(ix)
	t.Fatal("the built segment's branch space is still reachable after compaction")
}

// TestMemtableFillAllocs: filling a memtable's columns allocates nothing
// once the pooled scratch has grown to its space, and the columns are the
// exact overlaps whichever scratch the pool hands out.
func TestMemtableFillAllocs(t *testing.T) {
	ts := testDataset(40, 76)
	p := newPayload(NewBiBranch(), nil, false)
	for _, tr := range ts {
		p.add(tr)
	}
	q := ts[3]
	qp := p.space.QueryProfile(q)
	ov, lov := make([]int32, len(ts)), make([]int32, len(ts))
	p.fill(q, qp, ov, lov, nil)
	if ov[3] != int32(q.Size()) || lov[3] != int32(q.Size()) {
		t.Fatalf("the query against itself: overlaps %d and %d, size %d", ov[3], lov[3], q.Size())
	}
	want := slices.Concat(ov, lov)
	if n := testing.AllocsPerRun(50, func() { p.fill(q, qp, ov, lov, nil) }); n != 0 && !raceEnabled {
		t.Fatalf("a fill allocated %.1f times", n)
	}
	if got := slices.Concat(ov, lov); !slices.Equal(got, want) {
		t.Fatalf("refilled columns %v, first fill %v", got, want)
	}
}
