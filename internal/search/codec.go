package search

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"treesim/internal/branch"
	"treesim/internal/segstore"
	"treesim/internal/tree"
)

// Persistence of a BiBranch-filtered index: the dataset trees (canonical
// text encoding) plus the pre-built branch spaces and profiles, so loading
// skips both tree parsing of external formats and re-profiling.
//
// On disk (all integers little-endian):
//
//	magic "TSIX3\x00"
//	a checksummed segment manifest (internal/segstore framing: u32
//	length, body, u32 CRC32C)
//	one blob per manifest segment: the payload bytes followed by a u32
//	CRC32C trailer
//
// A payload is a u8 positional flag, a branch.Write blob, a u32 tree
// count, then each tree as (u32 len, canonical text bytes). One payload
// per storage segment preserves the segment layout, the dataset-id
// assignment and the unresolved tombstones across restarts.
//
// Checksums make corruption a first-class, precisely reported condition:
// LoadIndex and VerifySnapshot distinguish a truncated snapshot
// (ErrSnapshotTruncated — the file ends before declared data) from a
// corrupt one (ErrSnapshotCorrupt — any other magic, a checksum mismatch,
// or structural nonsense inside length-complete data).

var indexMagic = [6]byte{'T', 'S', 'I', 'X', '3', 0}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxPayload caps a declared payload length (1 TiB) so a corrupt header
// can neither overflow the int64 LimitReader nor promise absurd work;
// real bounds come from the per-structure caps during decoding.
const maxPayload = 1 << 40

// ErrSnapshotCorrupt reports a snapshot whose bytes are all present but
// wrong: a checksum does not match, or a structurally invalid payload
// hides behind a matching length. Loaders must refuse to serve from it.
var ErrSnapshotCorrupt = errors.New("snapshot corrupt")

// ErrSnapshotTruncated reports a snapshot that ends early — the classic
// partial write. The prefix that exists may be pristine; there is just
// not enough of it.
var ErrSnapshotTruncated = errors.New("snapshot truncated")

// SaveIndex serializes an index whose filter is a *BiBranch in the TSIX3
// segmented format. Other filters are cheap to rebuild from the dataset
// and are not supported.
//
// SaveIndex is safe to call while the index serves queries, inserts and
// deletes: it takes a consistent cut of the segmented store (sealed
// segments plus a frozen memtable snapshot) and serializes from the
// immutable cut without blocking anyone.
func SaveIndex(w io.Writer, ix *Index) error {
	if _, ok := ix.filter.(*BiBranch); !ok {
		return fmt.Errorf("search: only BiBranch indexes can be saved (have %s)", ix.filter.Name())
	}
	cut := ix.store.Read()
	blobs := make([][]byte, len(cut.Segments))
	metas := make([]segstore.SegmentMeta, len(cut.Segments))
	for i, sg := range cut.Segments {
		p := payloadOf(sg)
		f, ok := p.filter.(*BiBranch)
		if !ok {
			return fmt.Errorf("search: only BiBranch indexes can be saved (segment %d holds %s)", i, p.filter.Name())
		}
		var buf bytes.Buffer
		if err := encodePayload(&buf, f, f.profiles, p.trees); err != nil {
			return err
		}
		blobs[i] = buf.Bytes()
		metas[i] = segstore.SegmentMeta{Base: sg.Base, N: sg.N, IDs: sg.IDs, BlobLen: uint64(len(blobs[i]))}
	}
	m := &segstore.Manifest{NextID: cut.NextID, Tombstones: cut.Tombs.IDs(), Segments: metas}

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(indexMagic[:]); err != nil {
		return err
	}
	if err := segstore.WriteManifest(bw, m); err != nil {
		return err
	}
	for _, b := range blobs {
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, crc32.Checksum(b, castagnoli)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodePayload writes one segment's payload.
func encodePayload(w io.Writer, f *BiBranch, profiles []*branch.Profile, trees []*tree.Tree) error {
	bw := bufio.NewWriter(w)
	positional := byte(0)
	if f.Positional {
		positional = 1
	}
	if err := bw.WriteByte(positional); err != nil {
		return err
	}
	if err := branch.Write(bw, f.space, profiles); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(trees))); err != nil {
		return err
	}
	for _, t := range trees {
		s := t.String()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(s))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadIndex deserializes an index saved by SaveIndex. Options configure
// the loaded index the same way they configure NewIndex: cost model, shard
// count, worker pool, memtable sizing. A filter option replaces the
// snapshot's BiBranch filter and re-indexes the loaded dataset under it
// (collapsing a segmented snapshot into one segment, with dataset ids and
// the id high-water mark preserved); so does a cost model that does not
// report a per-operation minimum of at least 1, under which the filter is
// None (see WithCostModel). With no options the index uses unit edit costs
// and the default execution shape.
//
// Errors satisfy errors.Is against ErrSnapshotTruncated (file ends early)
// or ErrSnapshotCorrupt (wrong magic / checksum mismatch / structural
// damage) so callers can report the failure mode precisely.
func LoadIndex(r io.Reader, opts ...IndexOption) (*Index, error) {
	m, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	cfg := applyIndexOpts(opts)

	segs := make([]*segstore.Segment, len(m.Segments))
	for i, meta := range m.Segments {
		f, ts, err := loadBlob(r, int64(meta.BlobLen), i)
		if err != nil {
			return nil, err
		}
		if len(ts) != meta.N {
			return nil, fmt.Errorf("search: %w: segment %d holds %d trees but the manifest says %d",
				ErrSnapshotCorrupt, i, len(ts), meta.N)
		}
		segs[i] = &segstore.Segment{
			Base:    meta.Base,
			N:       meta.N,
			IDs:     meta.IDs,
			Payload: &segPayload{trees: ts, filter: f},
		}
	}

	if cfg.filter != nil {
		// Filter replacement collapses the snapshot to one segment over
		// the live trees, re-indexed under the new filter. Ids and the
		// high-water mark survive; tombstones resolve here.
		return assembleReindexed(cfg, m, segs), nil
	}

	var proto Filter
	if len(segs) > 0 {
		proto = payloadOf(segs[0]).filter
	} else {
		proto = NewBiBranch()
		proto.Index(nil)
	}
	ix := indexShell(cfg, proto)
	ix.store.Bootstrap(segs, m.Tombstones, m.NextID)
	return ix, nil
}

// readHeader reads what precedes the segment blobs — the magic and the
// manifest — and classifies what is wrong with it.
func readHeader(r io.Reader) (*segstore.Manifest, error) {
	var magic [6]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("search: %w: reading magic: %v", ErrSnapshotTruncated, err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("search: %w: bad magic %q (want %q)", ErrSnapshotCorrupt, magic, indexMagic)
	}
	m, err := segstore.ReadManifest(r)
	if err != nil {
		if errors.Is(err, segstore.ErrManifestTruncated) {
			return nil, fmt.Errorf("search: %w: %v", ErrSnapshotTruncated, err)
		}
		return nil, fmt.Errorf("search: %w: %v", ErrSnapshotCorrupt, err)
	}
	for i, meta := range m.Segments {
		if meta.BlobLen > maxPayload {
			return nil, fmt.Errorf("search: %w: segment %d declares implausible payload length %d",
				ErrSnapshotCorrupt, i, meta.BlobLen)
		}
	}
	return m, nil
}

// assembleReindexed merges a segmented snapshot's live trees into one
// segment under a replacement filter.
func assembleReindexed(cfg indexConfig, m *segstore.Manifest, segs []*segstore.Segment) *Index {
	var merged []*segstore.Segment
	if sg := mergeLive(segs, segstore.NewTombstones(m.Tombstones), cfg.filter); sg != nil {
		merged = append(merged, sg)
	} else {
		cfg.filter.Index(nil)
	}
	ix := indexShell(cfg, cfg.filter)
	ix.store.Bootstrap(merged, nil, m.NextID)
	return ix
}

// loadBlob decodes one segment's checksummed payload blob, hashing
// exactly the declared bytes and classifying failures.
func loadBlob(r io.Reader, blen int64, seg int) (*BiBranch, []*tree.Tree, error) {
	cr := &countingHashReader{r: io.LimitReader(r, blen), h: crc32.New(castagnoli)}
	br := bufio.NewReader(cr)
	f, ts, derr := decodePayload(br)

	// Drain whatever the decoder did not consume — on success this should
	// be nothing; on error it completes the checksum so the failure can be
	// classified.
	var drained int64
	if rest, err := io.Copy(io.Discard, br); err == nil {
		drained = rest
	}
	if cr.n < blen {
		return nil, nil, fmt.Errorf("search: %w: segment %d payload has %d of %d declared bytes",
			ErrSnapshotTruncated, seg, cr.n, blen)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, nil, fmt.Errorf("search: %w: segment %d missing checksum trailer", ErrSnapshotTruncated, seg)
	}
	want := binary.LittleEndian.Uint32(trailer[:])
	if got := cr.h.Sum32(); got != want {
		return nil, nil, fmt.Errorf("search: %w: segment %d payload checksum %08x, trailer says %08x",
			ErrSnapshotCorrupt, seg, got, want)
	}
	// Checksum matched: the bytes are exactly what the writer produced, so
	// any remaining failure is structural corruption (or a writer bug),
	// not I/O damage.
	if derr != nil {
		return nil, nil, fmt.Errorf("search: %w: segment %d: %v", ErrSnapshotCorrupt, seg, derr)
	}
	if drained > 0 {
		return nil, nil, fmt.Errorf("search: %w: segment %d has %d payload bytes beyond the index structure",
			ErrSnapshotCorrupt, seg, drained)
	}
	return f, ts, nil
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
	m, err := readHeader(r)
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

// decodePayload reads one segment's payload. br must be the
// single buffering layer over the source: branch.Read adopts a
// *bufio.Reader as-is, so no read-ahead escapes the payload.
//
// The tree blobs are read sequentially (the stream dictates it) but
// parsed in parallel: parsing dominates decode time on large snapshots
// and each blob parses independently. The first error in dataset order
// wins, keeping failure messages identical to the sequential decoder's.
func decodePayload(br *bufio.Reader) (*BiBranch, []*tree.Tree, error) {
	positional, err := br.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	space, profiles, err := branch.Read(br)
	if err != nil {
		return nil, nil, err
	}

	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, nil, err
	}
	if int(n) != len(profiles) {
		return nil, nil, fmt.Errorf("search: %d trees but %d profiles", n, len(profiles))
	}
	blobs := make([][]byte, n)
	for i := range blobs {
		var l uint32
		if err := binary.Read(br, binary.LittleEndian, &l); err != nil {
			return nil, nil, err
		}
		if l > 1<<26 {
			return nil, nil, fmt.Errorf("search: tree %d implausibly large (%d bytes)", i, l)
		}
		buf := make([]byte, l)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, nil, err
		}
		blobs[i] = buf
	}

	trees := make([]*tree.Tree, n)
	errs := make([]error, n)
	forEach(int(n), func(i int) {
		t, err := tree.Parse(string(blobs[i]))
		if err != nil {
			errs[i] = fmt.Errorf("search: tree %d: %w", i, err)
			return
		}
		if t.Size() != profiles[i].Size {
			errs[i] = fmt.Errorf("search: tree %d has %d nodes but profile says %d",
				i, t.Size(), profiles[i].Size)
			return
		}
		trees[i] = t
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// The postings are derived, not stored: every decoded segment is a
	// sealed one, and the snapshot bytes stay what they were.
	f := &BiBranch{
		Q:          space.Q(),
		Positional: positional == 1,
		space:      space,
		profiles:   profiles,
		post:       postingsOf(profiles),
	}
	return f, trees, nil
}
