package segstore

import (
	"slices"
	"sync"
	"testing"
)

// memPayload is the test stand-in for the caller's payload: a growing int
// slice whose snapshot is a slice-header copy.
type memPayload struct {
	vals []int
}

func testHooks() Hooks {
	return Hooks{
		NewMem: func(base int) any { return &memPayload{} },
		Snapshot: func(mem any, n int, _ bool) any {
			m := mem.(*memPayload)
			return m.vals[:n:n]
		},
	}
}

// TestSnapshotSealFlag: the Snapshot hook hears seal=true once per seal —
// a full memtable's or an explicit Seal's — and seal=false for every
// reader's cut of a non-empty memtable, so only a seal pays for building.
func TestSnapshotSealFlag(t *testing.T) {
	var seals, cuts int
	h := testHooks()
	snap := h.Snapshot
	h.Snapshot = func(mem any, n int, seal bool) any {
		if seal {
			seals++
		} else {
			cuts++
		}
		return snap(mem, n, seal)
	}
	s := New(Config{MemtableSize: 3}, h)
	for i := 0; i < 4; i++ {
		insertVal(s, i) // the third seals
	}
	s.Read()
	s.Read()
	s.Seal()
	s.Read() // an empty memtable needs no snapshot
	if seals != 2 || cuts != 2 {
		t.Fatalf("%d seals and %d cuts, want 2 and 2", seals, cuts)
	}
}

func insertVal(s *Store, v int) (int, bool) {
	return s.Insert(func(id int, mem any) {
		m := mem.(*memPayload)
		m.vals = append(m.vals, v)
	})
}

// collectLive walks a cut and returns id→value for every visible entry.
func collectLive(c Cut) map[int]int {
	out := map[int]int{}
	for _, sg := range c.Segments {
		var vals []int
		switch p := sg.Payload.(type) {
		case []int:
			vals = p
		case *memPayload:
			vals = p.vals
		}
		for i := 0; i < sg.Len(); i++ {
			id := sg.ID(i)
			if !c.Tombs.Has(id) {
				out[id] = vals[i]
			}
		}
	}
	return out
}

func TestLifecycleSealAndRead(t *testing.T) {
	s := New(Config{MemtableSize: 3}, testHooks())
	for i := 0; i < 7; i++ {
		id, sealed := insertVal(s, 100+i)
		if id != i {
			t.Fatalf("insert %d got id %d", i, id)
		}
		if wantSeal := (i+1)%3 == 0; sealed != wantSeal {
			t.Fatalf("insert %d sealed=%v, want %v", i, sealed, wantSeal)
		}
	}
	st := s.Stats()
	if st.Segments != 2 || st.MemtableLen != 1 || st.NextID != 7 || st.Live != 7 {
		t.Fatalf("stats %+v", st)
	}
	c := s.Read()
	if len(c.Segments) != 3 { // 2 sealed + memtable snapshot
		t.Fatalf("cut has %d segments", len(c.Segments))
	}
	live := collectLive(c)
	if len(live) != 7 {
		t.Fatalf("cut shows %d entries", len(live))
	}
	for id, v := range live {
		if v != 100+id {
			t.Fatalf("id %d has value %d", id, v)
		}
	}
	// The cut's memtable snapshot must not see later inserts.
	insertVal(s, 999)
	if got := collectLive(c); len(got) != 7 {
		t.Fatalf("old cut grew to %d entries", len(got))
	}
}

func TestDeleteSemantics(t *testing.T) {
	s := New(Config{MemtableSize: 4}, testHooks())
	for i := 0; i < 6; i++ {
		insertVal(s, i)
	}
	if s.Delete(-1) || s.Delete(6) {
		t.Fatal("deleted an id that was never assigned")
	}
	if !s.Delete(2) { // sealed segment
		t.Fatal("delete of sealed id failed")
	}
	if !s.Delete(5) { // memtable
		t.Fatal("delete of memtable id failed")
	}
	if s.Delete(2) {
		t.Fatal("double delete succeeded")
	}
	if s.Contains(2) || s.Contains(5) || !s.Contains(0) {
		t.Fatal("visibility wrong after deletes")
	}
	c := s.Read()
	live := collectLive(c)
	if len(live) != 4 {
		t.Fatalf("live count %d after 2 deletes of 6", len(live))
	}
	if _, ok := live[2]; ok {
		t.Fatal("tombstoned id visible in cut")
	}
	if got := s.Stats().Live; got != 4 {
		t.Fatalf("stats live %d", got)
	}
}

// mergeInts is the test merge kernel: concatenates surviving values in id
// order, explicit ids when holes appear.
func mergeInts(segs []*Segment, tombs *Tombstones) *Segment {
	var ids []int
	var vals []int
	for _, sg := range segs {
		sv := sg.Payload.([]int)
		for i := 0; i < sg.Len(); i++ {
			if id := sg.ID(i); !tombs.Has(id) {
				ids = append(ids, id)
				vals = append(vals, sv[i])
			}
		}
	}
	if len(ids) == 0 {
		return nil
	}
	out := &Segment{N: len(ids), IDs: ids, Payload: vals}
	if ids[len(ids)-1]-ids[0] == len(ids)-1 {
		out.Base, out.IDs = ids[0], nil
	}
	return out
}

func TestCompactResolvesTombstones(t *testing.T) {
	s := New(Config{MemtableSize: 2}, testHooks())
	for i := 0; i < 6; i++ {
		insertVal(s, 10*i)
	}
	s.Delete(1)
	s.Delete(4)
	before := collectLive(s.Read())

	if !s.Compact(mergeInts) {
		t.Fatal("compact returned false")
	}
	st := s.Stats()
	if st.Segments != 1 {
		t.Fatalf("%d segments after compaction", st.Segments)
	}
	if st.Tombstones != 0 {
		t.Fatalf("%d tombstones survived full compaction", st.Tombstones)
	}
	after := collectLive(s.Read())
	if len(after) != len(before) {
		t.Fatalf("live set changed size: %d -> %d", len(before), len(after))
	}
	for id, v := range before {
		if after[id] != v {
			t.Fatalf("id %d: %d -> %d", id, v, after[id])
		}
	}
	// Deleting a compacted-away id must fail; NextID never rewinds.
	if s.Delete(1) {
		t.Fatal("delete of resolved id succeeded")
	}
	if s.NextID() != 6 {
		t.Fatalf("next id %d", s.NextID())
	}
	if id, _ := insertVal(s, 60); id != 6 {
		t.Fatalf("post-compaction insert got id %d", id)
	}
}

func TestCompactKeepsMidMergeState(t *testing.T) {
	s := New(Config{MemtableSize: 2}, testHooks())
	for i := 0; i < 4; i++ {
		insertVal(s, i)
	}
	// The merge callback simulates concurrent traffic: a new sealed
	// segment and a new tombstone arrive while it runs.
	ok := s.Compact(func(segs []*Segment, tombs *Tombstones) *Segment {
		insertVal(s, 4)
		insertVal(s, 5) // seals a third segment mid-merge
		s.Delete(4)     // tombstone the mid-merge insert
		return mergeInts(segs, tombs)
	})
	if !ok {
		t.Fatal("compact returned false")
	}
	st := s.Stats()
	if st.Segments != 2 { // merged + the mid-merge seal
		t.Fatalf("%d segments", st.Segments)
	}
	if st.Tombstones != 1 { // the mid-merge tombstone must survive
		t.Fatalf("%d tombstones", st.Tombstones)
	}
	live := collectLive(s.Read())
	if len(live) != 5 {
		t.Fatalf("live %d", len(live))
	}
	if _, ok := live[4]; ok {
		t.Fatal("mid-merge tombstoned id visible")
	}
}

func TestEpochAdvances(t *testing.T) {
	s := New(Config{MemtableSize: 2}, testHooks())
	e0 := s.Epoch()
	insertVal(s, 0)
	if s.Epoch() == e0 {
		t.Fatal("insert did not advance epoch")
	}
	insertVal(s, 1) // seals
	e1 := s.Epoch()
	s.Delete(0)
	if s.Epoch() == e1 {
		t.Fatal("delete did not advance epoch")
	}
	e2 := s.Epoch()
	s.Compact(mergeInts)
	if s.Epoch() == e2 {
		t.Fatal("compaction did not advance epoch")
	}
}

func TestBootstrap(t *testing.T) {
	s := New(Config{}, testHooks())
	seg := &Segment{N: 3, IDs: []int{0, 2, 5}, Payload: []int{10, 12, 15}}
	s.Bootstrap([]*Segment{seg}, 6)
	if !s.Contains(2) || !s.Contains(5) || s.Contains(3) || s.Stats().Tombstones != 0 {
		t.Fatal("bootstrap visibility wrong")
	}
	if id, _ := insertVal(s, 16); id != 6 {
		t.Fatalf("first post-bootstrap id %d", id)
	}
	live := collectLive(s.Read())
	if len(live) != 4 || live[2] != 12 || live[5] != 15 || live[6] != 16 {
		t.Fatalf("live %v", live)
	}
}

func TestShouldCompact(t *testing.T) {
	s := New(Config{MemtableSize: 1, CompactAfter: 2}, testHooks())
	insertVal(s, 0)
	if s.ShouldCompact() {
		t.Fatal("trigger fired at 1 segment")
	}
	insertVal(s, 1)
	if !s.ShouldCompact() {
		t.Fatal("trigger idle at 2 segments")
	}
	off := New(Config{MemtableSize: 1, CompactAfter: -1}, testHooks())
	for i := 0; i < 10; i++ {
		insertVal(off, i)
	}
	if off.ShouldCompact() {
		t.Fatal("disabled trigger fired")
	}
}

// TestConcurrentMixedOps drives inserts, deletes, reads and compactions in
// parallel; run under -race it checks the publication protocol.
func TestConcurrentMixedOps(t *testing.T) {
	s := New(Config{MemtableSize: 8, CompactAfter: 2}, testHooks())
	var writers, bg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				id, _ := insertVal(s, i)
				if i%3 == 0 {
					s.Delete(id)
				}
			}
		}()
	}
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := s.Read()
			for id := range collectLive(c) {
				if c.Tombs.Has(id) {
					t.Error("tombstoned id in live set")
					return
				}
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s.ShouldCompact() {
				s.Compact(mergeInts)
			}
		}
	}()
	writers.Wait()
	close(stop)
	bg.Wait()

	s.Compact(mergeInts)
	st := s.Stats()
	if st.NextID != 1200 {
		t.Fatalf("next id %d", st.NextID)
	}
	live := collectLive(s.Read())
	if len(live) != st.Live {
		t.Fatalf("cut live %d, stats live %d", len(live), st.Live)
	}
}

func TestTombstonesCOW(t *testing.T) {
	var nilSet *Tombstones
	if nilSet.Has(0) || nilSet.Len() != 0 || nilSet.IDs() != nil {
		t.Fatal("nil set misbehaves")
	}
	a := nilSet.With(3)
	b := a.With(1)
	if a.Len() != 1 || b.Len() != 2 || a.Has(1) {
		t.Fatal("With mutated the receiver")
	}
	ids := b.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("ids %v", ids)
	}
	if got := b.Without([]int{1, 3}); got != nil {
		t.Fatal("emptied set is not nil")
	}
	if got := b.Without([]int{3}); got.Len() != 1 || !got.Has(1) {
		t.Fatal("partial Without wrong")
	}
	if b.Len() != 2 {
		t.Fatal("Without mutated the receiver")
	}

	// The ids stay sorted and de-duplicated whatever order they arrive
	// in, and every set handed out keeps exactly the ids it had.
	sets := []*Tombstones{NewTombstones([]int{9, 2, 9, 5})}
	want := [][]int{{2, 5, 9}}
	for _, step := range []struct {
		with    int
		without []int
		ids     []int
	}{
		{with: 7, ids: []int{2, 5, 7, 9}},
		{with: 0, ids: []int{0, 2, 5, 7, 9}},
		{with: 5, ids: []int{0, 2, 5, 7, 9}},
		{with: 11, ids: []int{0, 2, 5, 7, 9, 11}},
		{without: []int{5, 5, 0, 42}, ids: []int{2, 7, 9, 11}},
		{with: 3, ids: []int{2, 3, 7, 9, 11}},
	} {
		cur := sets[len(sets)-1]
		next := cur.Without(step.without)
		if step.without == nil {
			next = cur.With(step.with)
		}
		sets, want = append(sets, next), append(want, step.ids)
		for i, s := range sets {
			if got := s.IDs(); !slices.Equal(got, want[i]) {
				t.Fatalf("set %d reads %v, want %v", i, got, want[i])
			}
		}
	}
	last := sets[len(sets)-1]
	for id := -1; id <= 12; id++ {
		if last.Has(id) != slices.Contains(want[len(want)-1], id) {
			t.Fatalf("Has(%d) = %v on %v", id, last.Has(id), last.IDs())
		}
	}

}

// TestTombstonesLocals: over every run [lo, hi) of a segment, contiguous
// or listing its ids, Locals finds exactly the positions whose ids the set
// holds, ascending, after what dst held — with tombstones below the
// segment's first id, at its first and last id, on adjacent ids, between
// listed ids and past its MaxID.
func TestTombstonesLocals(t *testing.T) {
	tombs := NewTombstones([]int{1, 3, 10, 11, 14, 15, 16, 19, 20, 25, 40})
	for _, sg := range []*Segment{
		{Base: 10, N: 10},
		{N: 7, IDs: []int{10, 12, 13, 15, 16, 18, 19}},
		{N: 3, IDs: []int{2, 4, 30}},
		{Base: 26, N: 4},
	} {
		for lo := 0; lo <= sg.N; lo++ {
			for hi := lo; hi <= sg.N; hi++ {
				var want []int
				for i := lo; i < hi; i++ {
					if tombs.Has(sg.ID(i)) {
						want = append(want, i)
					}
				}
				got := tombs.Locals(sg, lo, hi, []int{-1})
				if got[0] != -1 || !slices.Equal(got[1:], want) {
					t.Fatalf("segment %+v [%d, %d): Locals %v, want [-1] + %v", *sg, lo, hi, got, want)
				}
			}
		}
	}
	var none *Tombstones
	if got := none.Locals(&Segment{Base: 0, N: 5}, 0, 5, nil); len(got) != 0 {
		t.Fatalf("the empty set found %v", got)
	}
}
