package search

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"sync"
	"testing"

	"treesim/internal/tree"
)

// TestHammerCompaction drives every mutation path of the segmented index
// at once — inserts, deletes, queries, explicit compactions and snapshot
// writes — under aggressive segment churn (tiny memtable, automatic
// compaction trigger). Run with -race (make hammer, ci.sh) it proves the
// epoch-snapshot protocol: queries never observe a torn cut, compaction
// never loses a mid-merge write, and the final state matches a clean
// rebuild exactly.
func TestHammerCompaction(t *testing.T) {
	const (
		writers     = 3
		perWriter   = 120
		base        = 30
		deleteEvery = 4 // writers delete every 4th id they inserted
		baseDeletes = 5 // per writer, from its partition of the base
	)
	all := testDataset(base+writers*perWriter, 81)
	ix := NewIndex(all[:base], NewBiBranch(), WithMemtableSize(8), WithCompactionThreshold(3))

	// visible[w] is writer w's authoritative record of what it left
	// visible; the base partitions below writer 0's slots.
	visible := make([]map[int]*tree.Tree, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var bg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make(map[int]*tree.Tree)
			// Each writer owns a disjoint slice of the base dataset and
			// deletes a few of its ids, so every Delete must succeed
			// exactly once.
			lo, hi := w*base/writers, (w+1)*base/writers
			for id := lo; id < hi; id++ {
				mine[id] = all[id]
			}
			for i := 0; i < baseDeletes && lo+i < hi; i++ {
				id := lo + i
				if !ix.Delete(id) {
					t.Errorf("writer %d: delete of own base id %d refused", w, id)
				}
				delete(mine, id)
			}
			for i := 0; i < perWriter; i++ {
				tr := all[base+w*perWriter+i]
				id, err := ix.Insert(tr)
				if err != nil {
					t.Errorf("writer %d: insert: %v", w, err)
					return
				}
				mine[id] = tr
				if i%deleteEvery == 0 {
					if !ix.Delete(id) {
						t.Errorf("writer %d: delete of own insert %d refused", w, id)
					}
					delete(mine, id)
				}
			}
			visible[w] = mine
		}(w)
	}

	// Queriers, a compactor and a snapshotter churn until the writers are
	// done; their results are checked for internal consistency only (the
	// dataset is a moving target while they run).
	q := all[base/2]
	for g := 0; g < 2; g++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := ix.KNN(context.Background(), q, 5)
				if err != nil {
					t.Errorf("querier: %v", err)
					return
				}
				for i := 1; i < len(res); i++ {
					if res[i].Dist < res[i-1].Dist {
						t.Errorf("querier: unsorted results %v", res)
						return
					}
				}
				if _, _, err := ix.Range(context.Background(), q, 2); err != nil {
					t.Errorf("querier: %v", err)
					return
				}
			}
		}()
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ix.Compact()
			}
		}
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := SaveIndex(io.Discard, ix); err != nil {
					t.Errorf("snapshotter: %v", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	bg.Wait()

	want := make(map[int]*tree.Tree)
	for _, m := range visible {
		for id, tr := range m {
			want[id] = tr
		}
	}
	if ix.Size() != base+writers*perWriter {
		t.Fatalf("size %d, want %d", ix.Size(), base+writers*perWriter)
	}
	if ix.Live() != len(want) {
		t.Fatalf("live %d, want %d", ix.Live(), len(want))
	}

	// Final parity, three ways: the churned index, its snapshot loaded
	// back, and the brute-force ground truth all agree on (dist, id).
	ix.Seal()
	ix.Compact()
	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []*tree.Tree{q, all[base+7], testDataset(1, 82)[0]} {
		truth := bruteKNNAnswers(want, probe, 6)
		got, _, _ := ix.KNN(context.Background(), probe, 6)
		if !reflect.DeepEqual(got, truth) {
			t.Fatalf("churned index KNN = %v, want %v", got, truth)
		}
		lgot, _, _ := loaded.KNN(context.Background(), probe, 6)
		if !reflect.DeepEqual(lgot, truth) {
			t.Fatalf("reloaded snapshot KNN = %v, want %v", lgot, truth)
		}
	}
}

// TestFilterSharedAcrossIndexes: a filter is a configuration, so one value
// may configure any number of indexes. While a second NewIndex and a
// LoadIndex take the value the first index was built with, and after they
// have, the first index answers as an index built from a value of its own
// would, with the same Stats but for the times; the other two answer as
// their own fresh indexes do. Run with -race, it also proves that building
// from a shared value writes nothing a query of another index reads.
func TestFilterSharedAcrossIndexes(t *testing.T) {
	ts, other := testDataset(50, 95), testDataset(30, 96)
	f := NewBiBranch()
	first := NewIndex(ts, f)
	var snap bytes.Buffer
	if err := SaveIndex(&snap, NewIndex(other, NewBiBranch())); err != nil {
		t.Fatal(err)
	}
	same := func(name string, ix, want *Index, qs []*tree.Tree) {
		for _, q := range qs {
			for _, run := range []func(*Index) ([]Result, Stats, error){
				func(ix *Index) ([]Result, Stats, error) { return ix.KNN(context.Background(), q, 4) },
				func(ix *Index) ([]Result, Stats, error) { return ix.Range(context.Background(), q, 6) },
			} {
				got, gst, err := run(ix)
				if err != nil {
					t.Fatal(err)
				}
				res, st, _ := run(want)
				gst.FilterTime, gst.RefineTime, st.FilterTime, st.RefineTime = 0, 0, 0, 0
				if !reflect.DeepEqual(got, res) || !reflect.DeepEqual(gst, st) {
					t.Errorf("%s: answers %v with %+v, a fresh index %v with %+v", name, got, gst, res, st)
				}
			}
		}
	}
	fresh := NewIndex(ts, NewBiBranch())
	var second, loaded *Index
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); second = NewIndex(other, f) }()
	go func() {
		defer wg.Done()
		var err error
		if loaded, err = LoadIndex(&snap, f); err != nil {
			t.Error(err)
		}
	}()
	same("first, during the builds", first, fresh, ts[:10])
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	same("first, after the builds", first, fresh, ts)
	same("second", second, NewIndex(other, NewBiBranch()), other[:10])
	same("loaded", loaded, NewIndex(other, NewBiBranch()), other[:10])
}
