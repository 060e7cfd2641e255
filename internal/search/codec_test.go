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
	"treesim/internal/segstore"
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

// TestSaveLoadSegmentedRoundTrip: a TSIX4 snapshot of a multi-segment,
// tombstoned index preserves the segment layout, the id assignment, the
// tombstones and the id high-water mark exactly.
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
	if got := buf.Bytes()[:6]; string(got) != "TSIX4\x00" {
		t.Fatalf("SaveIndex produced magic %q, want TSIX4", got)
	}
	loaded, err := LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 40 || loaded.Live() != 37 {
		t.Fatalf("loaded size/live %d/%d, want 40/37", loaded.Size(), loaded.Live())
	}
	if a, b := ix.StoreStats(), loaded.StoreStats(); a.Segments != b.Segments || a.Tombstones != b.Tombstones {
		t.Fatalf("layout changed in round trip: %+v vs %+v", a, b)
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
// re-indexes a segmented snapshot under the new filter, keeping ids, the
// high-water mark and the tombstones.
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
// contract — a bit flip anywhere in the payload and any magic but TSIX4's
// are reported as corrupt, a short file (shorter than the magic included)
// as truncated, and neither ever loads.
func TestLoadClassifiesCorruptVsTruncated(t *testing.T) {
	ix := NewIndex(testDataset(15, 26), NewBiBranch())
	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	payloadStart := 6 + configLen + 8 // past the magic and the filter configuration, inside the manifest

	check := func(what string, data []byte, want error) {
		t.Helper()
		if _, err := LoadIndex(bytes.NewReader(data)); !errors.Is(err, want) {
			t.Errorf("LoadIndex, %s: err %v, want %v", what, err, want)
		}
		if err := VerifySnapshot(bytes.NewReader(data)); !errors.Is(err, want) {
			t.Errorf("VerifySnapshot, %s: err %v, want %v", what, err, want)
		}
	}

	// Bit flips across the payload and the trailer: always ErrSnapshotCorrupt.
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
	for _, magic := range []string{"TSIX1\x00", "TSIX2\x00", "TSIX3\x00"} {
		check(fmt.Sprintf("magic %q + garbage", magic), []byte(magic+"garbage"), ErrSnapshotCorrupt)
		check(fmt.Sprintf("magic %q + a TSIX4 body", magic), append([]byte(magic), full[6:]...), ErrSnapshotCorrupt)
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
	// The filter configuration has its own checksum: q=3 under q=2's
	// checksum is caught before the manifest is read.
	mut = append([]byte(nil), full...)
	mut[6] = 3
	if err := VerifySnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("configuration flip: %v, want ErrSnapshotCorrupt", err)
	}
}

// TestLoadBoundsLyingTreeCount: a snapshot whose checksums all match but
// whose manifest and payload both declare 2³¹ trees, and which holds
// none, fails cleanly without an allocation sized by the count.
func TestLoadBoundsLyingTreeCount(t *testing.T) {
	const n = 1 << 31
	payload := binary.LittleEndian.AppendUint32(nil, n)
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	buf.Write(encodeConfig(NewBiBranch()))
	m := &segstore.Manifest{NextID: n, Segments: []segstore.SegmentMeta{{Base: 0, N: n, BlobLen: uint64(len(payload))}}}
	if err := segstore.WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	buf.Write(payload)
	buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(payload, castagnoli)))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadIndex(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("lying count: %v, want ErrSnapshotCorrupt or ErrSnapshotTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("lying count allocated %d bytes, want at most 4 MiB", got)
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
