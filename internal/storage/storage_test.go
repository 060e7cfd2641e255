package storage

import (
	"os"
	"path/filepath"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/tree"
)

func storeDataset(n int) []*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 30, SizeStd: 8, Labels: 6, Decay: 0.1}
	return datagen.New(spec, 101).Dataset(n, 8)
}

func createStore(t *testing.T, ts []*tree.Tree, poolPages int) *TreeStore {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.tsst")
	if err := Create(path, ts); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	ts := storeDataset(100)
	s := createStore(t, ts, 16)
	if s.Len() != len(ts) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ts))
	}
	for i, want := range ts {
		got, err := s.Tree(i)
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(got, want) {
			t.Fatalf("record %d changed in round trip", i)
		}
	}
	// ReadAll agrees.
	all, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		if !tree.Equal(all[i], ts[i]) {
			t.Fatalf("ReadAll record %d differs", i)
		}
	}
}

func TestRecordsSpanPages(t *testing.T) {
	// One giant tree (a long path) spans several pages.
	n := &tree.Node{Label: "root"}
	cur := n
	for i := 0; i < 3000; i++ {
		c := &tree.Node{Label: "node"}
		cur.Children = []*tree.Node{c}
		cur = c
	}
	big := tree.New(n)
	ts := []*tree.Tree{tree.MustParse("a"), big, tree.MustParse("b(c)")}
	s := createStore(t, ts, 8)
	for i, want := range ts {
		got, err := s.Tree(i)
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(got, want) {
			t.Fatalf("record %d corrupted across pages", i)
		}
	}
	if s.DataPages() < 3 {
		t.Errorf("expected multi-page data region, got %d pages", s.DataPages())
	}
}

func TestBufferPoolCounts(t *testing.T) {
	ts := storeDataset(200)
	s := createStore(t, ts, 4)
	req0, hits0, phys0 := s.Pool().Stats()

	// First scan: mostly misses.
	if _, err := s.ReadAll(); err != nil {
		t.Fatal(err)
	}
	req1, hits1, phys1 := s.Pool().Stats()
	req1, hits1, phys1 = req1-req0, hits1-hits0, phys1-phys0
	if req1 == 0 || phys1 == 0 {
		t.Fatal("no I/O recorded")
	}
	// Sequential scan through a tiny pool still hits within pages
	// (consecutive records share pages) but must physically read every
	// data page at least once.
	if phys1 < s.DataPages() {
		t.Errorf("physical reads %d below data pages %d", phys1, s.DataPages())
	}
	if hits1 >= req1 {
		t.Errorf("hits %d not below requests %d", hits1, req1)
	}

	// Re-reading one record repeatedly is all hits.
	if _, err := s.Tree(0); err != nil {
		t.Fatal(err)
	}
	_, hBefore, pBefore := s.Pool().Stats()
	for i := 0; i < 10; i++ {
		if _, err := s.Tree(0); err != nil {
			t.Fatal(err)
		}
	}
	_, hAfter, pAfter := s.Pool().Stats()
	if pAfter != pBefore {
		t.Errorf("re-reads caused %d physical reads", pAfter-pBefore)
	}
	if hAfter <= hBefore {
		t.Error("re-reads not served from the pool")
	}
}

func TestPoolEviction(t *testing.T) {
	ts := storeDataset(300)
	s := createStore(t, ts, 2) // tiny pool forces eviction
	if _, err := s.ReadAll(); err != nil {
		t.Fatal(err)
	}
	first, err := s.Tree(0)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(first, ts[0]) {
		t.Error("record corrupted after eviction cycling")
	}
	// Drop empties the pool: next read is physical again.
	_, _, p1 := s.Pool().Stats()
	s.Pool().Drop()
	if _, err := s.Tree(0); err != nil {
		t.Fatal(err)
	}
	_, _, p2 := s.Pool().Stats()
	if p2 <= p1 {
		t.Error("Drop did not force a physical read")
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing"), 4); err == nil {
		t.Error("missing file opened")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not a store at all, definitely not"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad, 4); err == nil {
		t.Error("garbage file opened")
	}
}

func TestCreateRejectsEmptyTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x")
	if err := Create(path, []*tree.Tree{tree.New(nil)}); err == nil {
		t.Error("empty tree stored")
	}
}

func TestTreeOutOfRange(t *testing.T) {
	s := createStore(t, storeDataset(5), 4)
	if _, err := s.Tree(-1); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := s.Tree(5); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestPagerPagesAndPoolFloor(t *testing.T) {
	s := createStore(t, storeDataset(50), 0) // capacity floors at 1
	if s.pager.Pages() < 2 {
		t.Errorf("Pages = %d, want at least header+data", s.pager.Pages())
	}
	// Pool with capacity floor still serves reads correctly.
	for i := 0; i < 5; i++ {
		if _, err := s.Tree(i); err != nil {
			t.Fatal(err)
		}
	}
	req, hits, phys := s.Pool().Stats()
	if req == 0 || phys == 0 || hits > req {
		t.Errorf("stats implausible: req=%d hits=%d phys=%d", req, hits, phys)
	}
}

func TestPagerBounds(t *testing.T) {
	s := createStore(t, storeDataset(5), 4)
	buf := make([]byte, PageSize)
	if err := s.pager.ReadPage(-1, buf); err == nil {
		t.Error("negative page accepted")
	}
	if err := s.pager.ReadPage(1<<40, buf); err == nil {
		t.Error("out-of-range page accepted")
	}
	if err := s.pager.ReadPage(0, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
}
