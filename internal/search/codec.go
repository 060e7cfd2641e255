package search

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"treesim/internal/branch"
	"treesim/internal/segstore"
	"treesim/internal/tree"
)

// Persistence of a BiBranch-filtered index: the filter configuration and
// the dataset trees (canonical text encoding). A segment's branch space,
// profiles and postings are derived from its trees, so they are not
// stored: loading indexes every segment as a build or a compaction does.
//
// On disk (all integers little-endian):
//
//	magic "TSIX4\x00"
//	the filter configuration: u32 q, u8 positional, then a u32 CRC32C
//	of those five bytes
//	a checksummed segment manifest (internal/segstore framing: u32
//	length, body, u32 CRC32C)
//	one blob per manifest segment: the payload bytes followed by a u32
//	CRC32C trailer
//
// A payload is a u32 tree count, then each tree as (u32 len, canonical
// text bytes). One payload per storage segment preserves the segment
// layout, the dataset-id assignment and the unresolved tombstones across
// restarts.
//
// Checksums make corruption a first-class, precisely reported condition:
// LoadIndex and VerifySnapshot distinguish a truncated snapshot
// (ErrSnapshotTruncated — the file ends before declared data) from a
// corrupt one (ErrSnapshotCorrupt — any other magic, a checksum mismatch,
// or structural nonsense inside length-complete data).

var indexMagic = [6]byte{'T', 'S', 'I', 'X', '4', 0}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// maxPayload caps a declared payload length (1 TiB) so a corrupt
	// header can neither overflow the int64 LimitReader nor promise absurd
	// work; real bounds come from the bytes that actually arrive.
	maxPayload = 1 << 40
	// configLen is the filter configuration's length with its checksum.
	configLen = 4 + 1 + 4
)

// ErrSnapshotCorrupt reports a snapshot whose bytes are all present but
// wrong: a checksum does not match, or a structurally invalid payload
// hides behind a matching length. Loaders must refuse to serve from it.
var ErrSnapshotCorrupt = errors.New("snapshot corrupt")

// ErrSnapshotTruncated reports a snapshot that ends early — the classic
// partial write. The prefix that exists may be pristine; there is just
// not enough of it.
var ErrSnapshotTruncated = errors.New("snapshot truncated")

// SaveIndex serializes an index in the TSIX4 segmented format. A
// sequential index has no filter configuration to store and is refused:
// it is rebuilt from its dataset for free.
//
// SaveIndex is safe to call while the index serves queries, inserts and
// deletes: it takes a consistent cut of the segmented store (sealed
// segments plus a frozen memtable snapshot) and serializes from the
// immutable cut without blocking anyone.
func SaveIndex(w io.Writer, ix *Index) error {
	f := ix.filter
	if f == nil {
		return fmt.Errorf("search: only BiBranch indexes can be saved (have %s)", f.Name())
	}
	cut := ix.store.Read()
	blobs := make([][]byte, len(cut.Segments))
	metas := make([]segstore.SegmentMeta, len(cut.Segments))
	for i, sg := range cut.Segments {
		blobs[i] = encodePayload(payloadOf(sg).trees)
		metas[i] = segstore.SegmentMeta{Base: sg.Base, N: sg.N, IDs: sg.IDs, BlobLen: uint64(len(blobs[i]))}
	}
	m := &segstore.Manifest{NextID: cut.NextID, Tombstones: cut.Tombs.IDs(), Segments: metas}

	// A bufio.Writer's errors are sticky: Flush reports the first.
	bw := bufio.NewWriter(w)
	bw.Write(indexMagic[:])
	bw.Write(encodeConfig(f))
	if err := segstore.WriteManifest(bw, m); err != nil {
		return err
	}
	for _, b := range blobs {
		bw.Write(b)
		bw.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(b, castagnoli)))
	}
	return bw.Flush()
}

// encodeConfig encodes the filter configuration with its checksum.
func encodeConfig(f *BiBranch) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, configLen), uint32(f.level()))
	if f.Positional {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// encodePayload encodes one segment's trees.
func encodePayload(trees []*tree.Tree) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(trees)))
	for _, t := range trees {
		s := t.String()
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// LoadIndex deserializes an index saved by SaveIndex, indexing every
// segment's trees under the stored filter configuration the way NewIndex
// and compaction do. Options configure the loaded index the same way they
// configure NewIndex: cost model, memtable sizing, compaction threshold. A
// filter option replaces the snapshot's filter: every segment is indexed
// under it instead. A nil one is no option, and the snapshot's filter
// stays. Under a cost model that does not report a per-operation minimum of
// at least 1 the index scans sequentially (see WithCostModel). With no
// options the index uses unit edit costs and the default execution shape.
//
// Errors satisfy errors.Is against ErrSnapshotTruncated (file ends early)
// or ErrSnapshotCorrupt (wrong magic / checksum mismatch / structural
// damage) so callers can report the failure mode precisely.
func LoadIndex(r io.Reader, opts ...IndexOption) (*Index, error) {
	proto, m, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	cfg := applyIndexOpts(opts)

	segs := make([]*segstore.Segment, len(m.Segments))
	for i, meta := range m.Segments {
		ts, err := loadBlob(r, int64(meta.BlobLen), meta.N, i)
		if err != nil {
			return nil, err
		}
		segs[i] = &segstore.Segment{Base: meta.Base, N: meta.N, IDs: meta.IDs, Payload: &segPayload{trees: ts}}
	}

	if cfg.filter != nil || cfg.sequential() { // cfg.filter is nil when sequential
		proto = cfg.filter
	}
	// Every loaded segment is a sealed one: its filter is built over its
	// trees, profiles and postings both, as a compaction builds it.
	for _, sg := range segs {
		p := payloadOf(sg)
		p.filter = proto.Fresh()
		p.filter.Index(p.trees)
	}
	proto.Index(nil)
	ix := indexShell(cfg, proto)
	ix.store.Bootstrap(segs, m.Tombstones, m.NextID)
	return ix, nil
}

// readHeader reads what precedes the segment blobs — the magic, the
// filter configuration and the manifest — and classifies what is wrong
// with it.
func readHeader(r io.Reader) (*BiBranch, *segstore.Manifest, error) {
	var magic [6]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("search: %w: reading magic: %v", ErrSnapshotTruncated, err)
	}
	if magic != indexMagic {
		return nil, nil, fmt.Errorf("search: %w: bad magic %q (want %q)", ErrSnapshotCorrupt, magic, indexMagic)
	}
	var c [configLen]byte
	if _, err := io.ReadFull(r, c[:]); err != nil {
		return nil, nil, fmt.Errorf("search: %w: reading filter configuration: %v", ErrSnapshotTruncated, err)
	}
	if got, want := crc32.Checksum(c[:5], castagnoli), binary.LittleEndian.Uint32(c[5:]); got != want {
		return nil, nil, fmt.Errorf("search: %w: filter configuration checksum %08x, trailer says %08x",
			ErrSnapshotCorrupt, got, want)
	}
	q := binary.LittleEndian.Uint32(c[:4])
	if q < branch.MinQ || q > branch.MaxQ || c[4] > 1 {
		return nil, nil, fmt.Errorf("search: %w: implausible filter configuration q=%d positional=%d",
			ErrSnapshotCorrupt, q, c[4])
	}
	proto := &BiBranch{Q: int(q), Positional: c[4] == 1}

	m, err := segstore.ReadManifest(r)
	if err != nil {
		if errors.Is(err, segstore.ErrManifestTruncated) {
			return nil, nil, fmt.Errorf("search: %w: %v", ErrSnapshotTruncated, err)
		}
		return nil, nil, fmt.Errorf("search: %w: %v", ErrSnapshotCorrupt, err)
	}
	for i, meta := range m.Segments {
		if meta.BlobLen > maxPayload {
			return nil, nil, fmt.Errorf("search: %w: segment %d declares implausible payload length %d",
				ErrSnapshotCorrupt, i, meta.BlobLen)
		}
	}
	return proto, m, nil
}

// loadBlob decodes segment seg's checksummed payload blob, which the
// manifest says holds n trees, hashing exactly the declared bytes and
// classifying failures.
func loadBlob(r io.Reader, blen int64, n, seg int) ([]*tree.Tree, error) {
	cr := &countingHashReader{r: io.LimitReader(r, blen), h: crc32.New(castagnoli)}
	br := bufio.NewReader(cr)
	ts, derr := decodePayload(br, n)

	// Drain whatever the decoder did not consume — on success this should
	// be nothing; on error it completes the checksum so the failure can be
	// classified.
	var drained int64
	if rest, err := io.Copy(io.Discard, br); err == nil {
		drained = rest
	}
	if cr.n < blen {
		return nil, fmt.Errorf("search: %w: segment %d payload has %d of %d declared bytes",
			ErrSnapshotTruncated, seg, cr.n, blen)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("search: %w: segment %d missing checksum trailer", ErrSnapshotTruncated, seg)
	}
	want := binary.LittleEndian.Uint32(trailer[:])
	if got := cr.h.Sum32(); got != want {
		return nil, fmt.Errorf("search: %w: segment %d payload checksum %08x, trailer says %08x",
			ErrSnapshotCorrupt, seg, got, want)
	}
	// Checksum matched: the bytes are exactly what the writer produced, so
	// any remaining failure is structural corruption (or a writer bug),
	// not I/O damage.
	if derr != nil {
		return nil, fmt.Errorf("search: %w: segment %d: %v", ErrSnapshotCorrupt, seg, derr)
	}
	if drained > 0 {
		return nil, fmt.Errorf("search: %w: segment %d has %d payload bytes beyond its trees",
			ErrSnapshotCorrupt, seg, drained)
	}
	return ts, nil
}

// countingHashReader hashes and counts everything read through it.
type countingHashReader struct {
	r io.Reader
	h hash.Hash32
	n int64
}

func (c *countingHashReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.h.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// VerifySnapshot checks a snapshot's integrity — magic, lengths and
// checksums — without decoding it: cheap enough to run after every
// snapshot write, before the rename publishes it.
func VerifySnapshot(r io.Reader) error {
	_, m, err := readHeader(r)
	if err != nil {
		return err
	}
	for i, meta := range m.Segments {
		if err := verifyBlob(r, int64(meta.BlobLen), i); err != nil {
			return err
		}
	}
	return nil
}

// verifyBlob hashes segment seg's blen payload bytes and compares against
// the u32 trailer.
func verifyBlob(r io.Reader, blen int64, seg int) error {
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, io.LimitReader(r, blen))
	if err != nil {
		return fmt.Errorf("search: verifying snapshot: %w", err)
	}
	if n < blen {
		return fmt.Errorf("search: %w: segment %d payload has %d of %d declared bytes", ErrSnapshotTruncated, seg, n, blen)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return fmt.Errorf("search: %w: segment %d payload missing checksum trailer", ErrSnapshotTruncated, seg)
	}
	if want := binary.LittleEndian.Uint32(trailer[:]); h.Sum32() != want {
		return fmt.Errorf("search: %w: segment %d payload checksum %08x, trailer says %08x",
			ErrSnapshotCorrupt, seg, h.Sum32(), want)
	}
	return nil
}

// decodePayload reads one segment's payload of n trees.
//
// Only the manifest vouches for n, and a manifest can lie with valid
// checksums, so n sizes no allocation: the slices grow as tree bytes
// actually arrive, and a lying count dies on EOF having cost a small
// starter capacity. The tree blobs are read sequentially (the stream
// dictates it) but parsed in parallel: each parses independently. The
// first error in dataset order wins, keeping failure messages identical
// to a sequential decoder's.
func decodePayload(br *bufio.Reader, n int) ([]*tree.Tree, error) {
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, err
	}
	if count := binary.LittleEndian.Uint32(u32[:]); int(count) != n {
		return nil, fmt.Errorf("search: payload holds %d trees but the manifest says %d", count, n)
	}
	blobs := make([][]byte, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, err
		}
		l := int64(binary.LittleEndian.Uint32(u32[:]))
		buf, err := io.ReadAll(io.LimitReader(br, l))
		if err != nil {
			return nil, err
		}
		if int64(len(buf)) < l {
			return nil, fmt.Errorf("search: tree %d: %w", i, io.ErrUnexpectedEOF)
		}
		blobs = append(blobs, buf)
	}

	trees := make([]*tree.Tree, n)
	errs := make([]error, n)
	forEach(n, func(i int) {
		t, err := tree.Parse(string(blobs[i]))
		if err != nil {
			errs[i] = fmt.Errorf("search: tree %d: %w", i, err)
			return
		}
		trees[i] = t
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return trees, nil
}

// forEach runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines,
// the caller's among them, handing the indices out in ascending order.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
