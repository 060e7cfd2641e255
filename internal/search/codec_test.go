package search

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"treesim/internal/branch"
	"treesim/internal/tree"
)

func TestSaveLoadIndexRoundTrip(t *testing.T) {
	ts := testDataset(60, 21)
	ix := NewIndex(ts, NewBiBranch())

	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != ix.Size() {
		t.Fatalf("loaded %d trees, want %d", loaded.Size(), ix.Size())
	}
	for i := 0; i < ix.Size(); i++ {
		if !tree.Equal(loaded.Tree(i), ix.Tree(i)) {
			t.Fatalf("tree %d changed in round trip", i)
		}
	}

	// Queries return identical results through the loaded index.
	for _, q := range []*tree.Tree{ts[0], ts[33], testDataset(1, 5)[0]} {
		wantK, _, _ := ix.KNN(context.Background(), q, 5)
		gotK, _, _ := loaded.KNN(context.Background(), q, 5)
		if !reflect.DeepEqual(wantK, gotK) {
			t.Fatalf("KNN differs after reload: %v vs %v", gotK, wantK)
		}
		wantR, _, _ := ix.Range(context.Background(), q, 3)
		gotR, _, _ := loaded.Range(context.Background(), q, 3)
		if !reflect.DeepEqual(wantR, gotR) {
			t.Fatalf("Range differs after reload: %v vs %v", gotR, wantR)
		}
	}
}

func TestSaveLoadPreservesConfig(t *testing.T) {
	ts := testDataset(20, 22)
	for _, c := range []struct {
		ts []*tree.Tree
		f  *BiBranch
	}{
		{ts, &BiBranch{Q: 2, Positional: true}},
		{ts, &BiBranch{Q: 3, Positional: false}},
		// No segment to take the configuration from: the header keeps it.
		{nil, &BiBranch{Q: 4, Positional: false}},
		// The largest level ParseFilter accepts is one a snapshot stores.
		{ts[:2], &BiBranch{Q: branch.MaxQ, Positional: true}},
	} {
		f := c.f
		ix := NewIndex(c.ts, f)
		var buf bytes.Buffer
		if err := SaveIndex(&buf, ix); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIndex(&buf)
		if err != nil {
			t.Fatal(err)
		}
		lf := loaded.Filter()
		if lf.Q != f.Q || lf.Positional != f.Positional {
			t.Errorf("config lost: got Q=%d pos=%v, want Q=%d pos=%v",
				lf.Q, lf.Positional, f.Q, f.Positional)
		}
	}
}

// TestSaveLoadSegmentedRoundTrip: a TSIX5 snapshot of a multi-segment,
// tombstoned index preserves the id assignment, the visible trees and the
// id high-water mark exactly, and reloads as one segment with no
// tombstones.
func TestSaveLoadSegmentedRoundTrip(t *testing.T) {
	all := testDataset(40, 28)
	ix := NewIndex(all[:10], NewBiBranch(), WithMemtableSize(6), WithCompactionThreshold(-1))
	for _, tr := range all[10:] {
		ix.Insert(tr)
	}
	for _, id := range []int{3, 17, 39} {
		if !ix.Delete(id) {
			t.Fatalf("delete %d refused", id)
		}
	}

	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:6]; string(got) != "TSIX5\x00" {
		t.Fatalf("SaveIndex produced magic %q, want TSIX5", got)
	}
	loaded, err := LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 40 || loaded.Live() != 37 {
		t.Fatalf("loaded size/live %d/%d, want 40/37", loaded.Size(), loaded.Live())
	}
	if st := loaded.StoreStats(); st.Segments != 1 || st.Tombstones != 0 || st.MemtableLen != 0 {
		t.Fatalf("loaded layout %+v, want 1 segment, 0 tombstones, an empty memtable", st)
	}
	for i := 0; i < 40; i++ {
		lt, lok := loaded.TreeAt(i)
		ot, ook := ix.TreeAt(i)
		if lok != ook || (lok && !tree.Equal(lt, ot)) {
			t.Fatalf("tree %d changed in round trip (visible %v/%v)", i, ook, lok)
		}
	}
	for _, q := range []*tree.Tree{all[0], all[25], testDataset(1, 29)[0]} {
		wantK, _, _ := ix.KNN(context.Background(), q, 5)
		gotK, _, _ := loaded.KNN(context.Background(), q, 5)
		if !reflect.DeepEqual(wantK, gotK) {
			t.Fatalf("KNN differs after segmented reload: %v vs %v", gotK, wantK)
		}
	}
	// The loaded index stays writable: insert and delete keep working at
	// the preserved high-water mark.
	novel := testDataset(1, 30)[0]
	id, _ := loaded.Insert(novel)
	if id != 40 {
		t.Fatalf("insert after reload got id %d, want 40", id)
	}
}

// TestLoadSegmentedWithFilterReplace: a filter option on LoadIndex
// indexes a snapshot of a segmented index under the new filter, keeping
// ids, the high-water mark and the deletes.
func TestLoadSegmentedWithFilterReplace(t *testing.T) {
	all := testDataset(30, 31)
	ix := NewIndex(all[:10], NewBiBranch(), WithMemtableSize(5), WithCompactionThreshold(-1))
	for _, tr := range all[10:] {
		ix.Insert(tr)
	}
	ix.Delete(7)
	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf, &BiBranch{Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Filter().Name() != "BiBranch-nopos" {
		t.Fatalf("filter %s, want BiBranch-nopos", loaded.Filter().Name())
	}
	if loaded.Size() != 30 || loaded.Live() != 29 {
		t.Fatalf("size/live %d/%d, want 30/29", loaded.Size(), loaded.Live())
	}
	if _, ok := loaded.TreeAt(7); ok {
		t.Fatal("tombstoned tree visible after filter-replacing load")
	}
	for _, q := range []*tree.Tree{all[3], all[20]} {
		wantK, _, _ := ix.KNN(context.Background(), q, 4)
		gotK, _, _ := loaded.KNN(context.Background(), q, 4)
		if !reflect.DeepEqual(wantK, gotK) {
			t.Fatalf("KNN differs under replaced filter: %v vs %v", gotK, wantK)
		}
	}
}

func TestSaveRejectsOtherFilters(t *testing.T) {
	ix := NewIndex(testDataset(5, 23))
	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err == nil {
		t.Error("sequential index saved")
	}
}

// TestLoadClassifiesCorruptVsTruncated: the loader's and the verifier's
// contract — a bit flip anywhere in the body and any magic but TSIX5's
// are reported as corrupt, a short file (shorter than the magic included)
// as truncated, and neither ever loads.
func TestLoadClassifiesCorruptVsTruncated(t *testing.T) {
	ix := NewIndex(testDataset(15, 26), NewBiBranch())
	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	payloadStart := 6 + headerLen // past the magic and the header: the body's first byte

	check := func(what string, data []byte, want error) {
		t.Helper()
		if _, err := LoadIndex(bytes.NewReader(data)); !errors.Is(err, want) {
			t.Errorf("LoadIndex, %s: err %v, want %v", what, err, want)
		}
		if err := VerifySnapshot(bytes.NewReader(data)); !errors.Is(err, want) {
			t.Errorf("VerifySnapshot, %s: err %v, want %v", what, err, want)
		}
	}

	// Bit flips across the body and the trailer: always ErrSnapshotCorrupt.
	for _, flip := range []int{payloadStart, payloadStart + 100, len(full) / 2, len(full) - 2} {
		mut := append([]byte(nil), full...)
		mut[flip] ^= 0x20
		check(fmt.Sprintf("flip at %d", flip), mut, ErrSnapshotCorrupt)
	}

	// Truncations, inside the magic too: always ErrSnapshotTruncated.
	for _, cut := range []int{0, 1, 2, 3, 4, 5, 7, payloadStart, payloadStart + 50, len(full) - 5, len(full) - 1} {
		check(fmt.Sprintf("cut at %d", cut), full[:cut], ErrSnapshotTruncated)
	}

	// The magics of formats this loader does not read: corrupt, whatever
	// follows them.
	for _, magic := range []string{"TSIX1\x00", "TSIX2\x00", "TSIX3\x00", "TSIX4\x00"} {
		check(fmt.Sprintf("magic %q + garbage", magic), []byte(magic+"garbage"), ErrSnapshotCorrupt)
		check(fmt.Sprintf("magic %q + a TSIX5 body", magic), append([]byte(magic), full[6:]...), ErrSnapshotCorrupt)
	}
}

func TestVerifySnapshot(t *testing.T) {
	ix := NewIndex(testDataset(12, 27), NewBiBranch())
	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if err := VerifySnapshot(bytes.NewReader(full)); err != nil {
		t.Fatalf("pristine snapshot fails verification: %v", err)
	}
	mut := append([]byte(nil), full...)
	mut[len(mut)/2] ^= 0x01
	if err := VerifySnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("bit flip: %v, want ErrSnapshotCorrupt", err)
	}
	if err := VerifySnapshot(bytes.NewReader(full[:len(full)-7])); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatal("truncation passed verification")
	}
	// The header has its own checksum: q=3 under q=2's checksum is caught
	// before the body is read.
	mut = append([]byte(nil), full...)
	mut[6] = 3
	if err := VerifySnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("configuration flip: %v, want ErrSnapshotCorrupt", err)
	}
}

// frameSnapshot frames a hand-made body as a TSIX5 snapshot with every
// checksum matching: what a snapshot that lies in its structure, not its
// bytes, looks like.
func frameSnapshot(f *BiBranch, next int, body []byte) []byte {
	out := append(indexMagic[:], encodeHeader(f, next, len(body))...)
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
}

// TestLoadBoundsLyingTreeCount: snapshots whose checksums all match but
// which declare far more than they hold — one tree of 2³¹ bytes in a
// 5-byte body, or a body of 1 TiB — fail cleanly without an allocation
// sized by the declared length. (A TSIX5 body declares no tree count; its
// lengths are what can lie.)
func TestLoadBoundsLyingTreeCount(t *testing.T) {
	lyingTree := frameSnapshot(NewBiBranch(), 1, []byte{0, 0, 0, 0, 0x80})
	lyingBody := append(indexMagic[:], encodeHeader(NewBiBranch(), 1, maxPayload)...)
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"tree length", lyingTree, ErrSnapshotCorrupt},
		{"body length", lyingBody, ErrSnapshotTruncated},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadIndex(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, c.want) {
			t.Fatalf("lying %s: %v, want %v", c.name, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Fatalf("lying %s allocated %d bytes, want at most 4 MiB", c.name, got)
		}
	}
}

// TestLoadRefusesIDsPastNext: a body whose id gaps pass the stored
// high-water mark is corrupt, checksums matching or not.
func TestLoadRefusesIDsPastNext(t *testing.T) {
	tr := []byte("a(b)")
	rec := func(gap uint64) []byte {
		b := binary.AppendUvarint(nil, gap)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(tr)))
		return append(b, tr...)
	}
	for _, c := range []struct {
		name string
		next int
		body []byte
	}{
		{"gap to next", 3, rec(3)},
		{"second tree at next", 2, append(rec(1), rec(0)...)},
		{"gap past int", 3, rec(1 << 63)},
		{"any tree, next 0", 0, rec(0)},
	} {
		if _, err := LoadIndex(bytes.NewReader(frameSnapshot(NewBiBranch(), c.next, c.body))); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: %v, want ErrSnapshotCorrupt", c.name, err)
		}
	}
	ix, err := LoadIndex(bytes.NewReader(frameSnapshot(NewBiBranch(), 3, rec(2))))
	if err != nil || ix.Size() != 3 || ix.Live() != 1 {
		t.Fatalf("the last id below next: %v", err)
	}
}

// TestSnapshotHoldsLiveTreesOnly: a deleted tree's text is not in the
// snapshot, and the reload is the live dataset — the same ids, trees,
// answers and high-water mark — in one segment with no tombstones.
func TestSnapshotHoldsLiveTreesOnly(t *testing.T) {
	all := testDataset(30, 32)
	ix := NewIndex(all[:10], NewBiBranch(), WithMemtableSize(4), WithCompactionThreshold(-1))
	for _, tr := range all[10:20] {
		ix.Insert(tr)
	}
	const label = "deleted-label-8e4c"
	doomed, _ := ix.Insert(tree.MustParse(label + "(x,y)"))
	for _, tr := range all[20:] {
		ix.Insert(tr)
	}
	for _, id := range []int{doomed, 2, 13, ix.Size() - 1} {
		if !ix.Delete(id) {
			t.Fatalf("delete %d refused", id)
		}
	}

	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(label)) {
		t.Fatalf("the snapshot holds deleted tree %d's text", doomed)
	}
	loaded, err := LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != ix.Size() || loaded.Live() != ix.Live() {
		t.Fatalf("loaded size/live %d/%d, want %d/%d", loaded.Size(), loaded.Live(), ix.Size(), ix.Live())
	}
	for i := 0; i < ix.Size(); i++ {
		lt, lok := loaded.TreeAt(i)
		ot, ook := ix.TreeAt(i)
		if lok != ook || (lok && !tree.Equal(lt, ot)) {
			t.Fatalf("tree %d changed in round trip (visible %v/%v)", i, ook, lok)
		}
	}
	if st := loaded.StoreStats(); st.Segments != 1 || st.Tombstones != 0 {
		t.Fatalf("loaded layout %+v, want 1 segment and 0 tombstones", st)
	}
	for _, q := range []*tree.Tree{all[0], all[17], tree.MustParse(label + "(x,y)")} {
		wantK, _, _ := ix.KNN(context.Background(), q, 5)
		gotK, _, _ := loaded.KNN(context.Background(), q, 5)
		wantR, _, _ := ix.Range(context.Background(), q, 4)
		gotR, _, _ := loaded.Range(context.Background(), q, 4)
		if !reflect.DeepEqual(wantK, gotK) || !reflect.DeepEqual(wantR, gotR) {
			t.Fatalf("answers differ after reload: k-NN %v vs %v, range %v vs %v", gotK, wantK, gotR, wantR)
		}
	}
	if id, _ := loaded.Insert(all[5]); id != ix.Size() {
		t.Fatalf("insert after reload got id %d, want %d", id, ix.Size())
	}
}

// TestSnapshotAllDeleted: an index whose every tree is deleted saves an
// empty body and reloads empty at its high-water mark.
func TestSnapshotAllDeleted(t *testing.T) {
	ix := NewIndex(testDataset(5, 33), NewBiBranch())
	for id := 0; id < 5; id++ {
		ix.Delete(id)
	}
	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), 6+headerLen+4; got != want {
		t.Fatalf("all-deleted snapshot is %d bytes, want %d", got, want)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 5 || loaded.Live() != 0 || loaded.StoreStats().Segments != 0 {
		t.Fatalf("loaded size/live/segments %d/%d/%d, want 5/0/0", loaded.Size(), loaded.Live(), loaded.StoreStats().Segments)
	}
	if id, _ := loaded.Insert(testDataset(1, 34)[0]); id != 5 {
		t.Fatalf("insert after reload got id %d, want 5", id)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("WRONGM agic and more data here..."),
	}
	for _, c := range cases {
		if _, err := LoadIndex(bytes.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
	// Truncated valid prefix.
	ts := testDataset(10, 24)
	ix := NewIndex(ts, NewBiBranch())
	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{7, len(full) / 2, len(full) - 3} {
		if _, err := LoadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
