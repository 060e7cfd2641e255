package search

import (
	"context"
	"reflect"
	"testing"

	"treesim/internal/tree"
)

// TestInsertMatchesRebuild: incrementally built indexes answer queries
// identically to an index built over the full dataset at once.
func TestInsertMatchesRebuild(t *testing.T) {
	all := testDataset(60, 51)
	for _, f := range allFilters() {
		incr := NewIndex(all[:30], f)
		for i, tr := range all[30:] {
			id, err := incr.Insert(tr)
			if err != nil {
				t.Fatal(err)
			}
			if id != 30+i || incr.Tree(id) != tr {
				t.Fatalf("%s: insert %d got id %d", f.Name(), 30+i, id)
			}
		}
		full := NewIndex(all, f)
		for _, q := range []*tree.Tree{all[0], all[45], testDataset(1, 52)[0]} {
			a, _, _ := incr.KNN(context.Background(), q, 4)
			b, _, _ := full.KNN(context.Background(), q, 4)
			if !sameDistances(a, b) {
				t.Fatalf("%s: incremental KNN %v, rebuilt %v", incr.Filter().Name(), dists(a), dists(b))
			}
			ar, _, _ := incr.Range(context.Background(), q, 3)
			br, _, _ := full.Range(context.Background(), q, 3)
			if !reflect.DeepEqual(ar, br) {
				t.Fatalf("%s: incremental Range differs", incr.Filter().Name())
			}
		}
	}
}

// TestInsertFindable: a newly inserted tree is immediately retrievable as
// its own nearest neighbor.
func TestInsertFindable(t *testing.T) {
	ix := NewIndex(testDataset(25, 55), NewBiBranch())
	novel := tree.MustParse("zz(yy(xx),ww,vv(uu,tt))")
	id, err := ix.Insert(novel)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ := ix.KNN(context.Background(), novel, 1)
	if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
		t.Fatalf("inserted tree not found: %v", res)
	}
}
