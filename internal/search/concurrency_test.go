package search

import (
	"context"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"treesim/internal/obs"
	"treesim/internal/tree"
)

// TestConcurrentInsertQuery hammers one index with inserts, k-NN queries,
// range queries, metadata reads and snapshot saves from many goroutines at
// once. Run under -race (the CI gate does) it proves Index's locking: no
// torn reads of the tree/profile slices, no lost inserts.
func TestConcurrentInsertQuery(t *testing.T) {
	base := testDataset(40, 60)
	extra := testDataset(120, 61)
	queries := testDataset(6, 62)
	ix := NewIndex(base, NewBiBranch())

	var wg sync.WaitGroup
	// 4 inserters, 30 trees each.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, tr := range extra[w*30 : (w+1)*30] {
				if _, err := ix.Insert(tr); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(w)
	}
	// 4 k-NN queriers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				res, stats, _ := ix.KNN(context.Background(), queries[w%len(queries)], 3)
				if len(res) != 3 || stats.Dataset < len(base) {
					t.Errorf("KNN under load: %d results, dataset %d", len(res), stats.Dataset)
					return
				}
			}
		}(w)
	}
	// 2 range queriers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				_, stats, _ := ix.Range(context.Background(), queries[(w+3)%len(queries)], 2)
				if stats.Dataset < len(base) {
					t.Errorf("Range under load: dataset %d", stats.Dataset)
					return
				}
			}
		}(w)
	}
	// 2 metadata readers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := ix.Size()
				if tr, ok := ix.TreeAt(n - 1); !ok || tr.IsEmpty() {
					t.Errorf("TreeAt(%d) failed under load", n-1)
					return
				}
			}
		}()
	}
	// 1 snapshotter saving while everything else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := SaveIndex(io.Discard, ix); err != nil {
				t.Errorf("SaveIndex under load: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got, want := ix.Size(), len(base)+len(extra); got != want {
		t.Fatalf("after concurrent inserts: size %d, want %d", got, want)
	}
	// The hammered index answers like a cleanly rebuilt one.
	all := append(append([]*tree.Tree(nil), base...), extra...)
	clean := NewIndex(all, NewBiBranch())
	for _, q := range queries {
		a, _, _ := ix.KNN(context.Background(), q, 5)
		b, _, _ := clean.KNN(context.Background(), q, 5)
		if !sameDistances(a, b) {
			t.Fatalf("hammered index KNN %v, clean rebuild %v", dists(a), dists(b))
		}
	}
}

// TestQueryContextCanceled: a canceled context aborts both query kinds
// with ctx.Err() and no results.
func TestQueryContextCanceled(t *testing.T) {
	ix := NewIndex(testDataset(30, 63), NewBiBranch())
	q := testDataset(1, 64)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, _, err := ix.KNN(ctx, q, 3); err != context.Canceled || res != nil {
		t.Fatalf("KNN on canceled ctx: res=%v err=%v", res, err)
	}
	if res, _, err := ix.Range(ctx, q, 2); err != context.Canceled || res != nil {
		t.Fatalf("Range on canceled ctx: res=%v err=%v", res, err)
	}
}

// cancelAt is a context whose Err turns context.Canceled on its n-th call
// and stays so: a cancellation that lands at a chosen check of a query.
type cancelAt struct {
	context.Context
	n, calls atomic.Int64
}

func (c *cancelAt) Err() error {
	if c.calls.Add(1) >= c.n.Load() {
		return context.Canceled
	}
	return nil
}

// TestQueryContextCanceledMidSegment: a context that ends after the filter
// pass has bounded the first 2·ctxCheckEvery trees of a sealed segment of
// more than 3·ctxCheckEvery aborts both query kinds there — with
// ctx.Err(), no results, a filter span marked canceled and no refine
// stage. A pass that checked the context less often would finish, pass
// the check after it, and be canceled in the refine stage.
func TestQueryContextCanceledMidSegment(t *testing.T) {
	ts := testDataset(3*ctxCheckEvery+5, 66)
	ix := NewIndex(ts, NewBiBranch())
	if segs := ix.cut().segs; len(segs) != 1 || segs[0].Len() != len(ts) {
		t.Fatalf("want one sealed segment of %d trees, have %d segments", len(ts), len(segs))
	}
	q := ts[ctxCheckEvery+7]
	for _, kind := range []string{"knn", "range"} {
		root := obs.New("query")
		ctx := &cancelAt{Context: obs.NewContext(context.Background(), root)}
		ctx.n.Store(3) // the pass's first two checks pass, its third ends it
		var (
			res   []Result
			stats Stats
			err   error
		)
		if kind == "knn" {
			res, stats, err = ix.KNN(ctx, q, 3)
		} else {
			res, stats, err = ix.Range(ctx, q, 2)
		}
		if err != context.Canceled || res != nil {
			t.Fatalf("%s canceled mid-segment: res=%v err=%v", kind, res, err)
		}
		root.End()
		spans := root.Snapshot().Children
		if len(spans) != 1 || spans[0].Name != "filter" || spans[0].Attrs["canceled"] != true {
			t.Fatalf("%s canceled mid-segment: want one canceled filter span, have %+v", kind, spans)
		}
		if stats.Verified != 0 || stats.Candidates != 0 {
			t.Fatalf("%s canceled in the filter pass, yet verified %d and counted %d candidates",
				kind, stats.Verified, stats.Candidates)
		}
	}
}

// TestQueryContextComplete: a live cancellable context leaves results
// identical to the background context's.
func TestQueryContextComplete(t *testing.T) {
	ts := testDataset(40, 65)
	ix := NewIndex(ts, NewBiBranch())
	q := ts[7]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, _, err := ix.KNN(ctx, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := ix.KNN(context.Background(), q, 4)
	if !sameDistances(a, b) {
		t.Fatalf("KNN under a live context %v != KNN %v", dists(a), dists(b))
	}
}

// TestConcurrentQueriesHammer drives many concurrent k-NN and range
// queries through one index, each on its own goroutine, so the pooled scan
// and accumulator memory and the shared bounders race against each other;
// run under -race this is the engine's data-race certificate. Results are
// checked against a fresh index that no other query touches.
func TestConcurrentQueriesHammer(t *testing.T) {
	ts := testDataset(60, 34)
	ix := NewIndex(ts, NewBiBranch())
	fresh := NewIndex(ts, NewBiBranch())
	queries := []*tree.Tree{ts[1], ts[30], ts[59], testDataset(1, 5)[0]}

	wantK := make([][]Result, len(queries))
	wantR := make([][]Result, len(queries))
	for i, q := range queries {
		wantK[i], _, _ = fresh.KNN(context.Background(), q, 5)
		wantR[i], _, _ = fresh.Range(context.Background(), q, 3)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				i := (w + it) % len(queries)
				got, _, err := ix.KNN(context.Background(), queries[i], 5)
				if err != nil || !reflect.DeepEqual(got, wantK[i]) {
					errs <- "knn diverged under concurrency"
					return
				}
				gotR, _, err := ix.Range(context.Background(), queries[i], 3)
				if err != nil || !reflect.DeepEqual(gotR, wantR[i]) {
					errs <- "range diverged under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
