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
	"treesim/internal/tree"
)

// Persistence of a BiBranch-filtered index: the filter configuration, the
// id high-water mark and the live trees with their dataset ids (canonical
// text encoding). Everything else is derived from those trees, as
// Algorithm 1 derives the index from the dataset: the branch space,
// profiles and postings, and the store's segment layout and tombstones,
// which are its history, not its data. Loading builds one sealed segment
// over the trees, as a compaction does.
//
// On disk (all integers little-endian):
//
//	magic "TSIX5\x00"
//	the header: u32 q, u8 positional, u64 next id, u64 body length, then
//	a u32 CRC32C of those 21 bytes
//	the body: per live tree, ascending by id, a uvarint id gap (the id
//	minus one more than the previous id, the first tree's id itself),
//	then (u32 len, canonical text bytes)
//	a u32 CRC32C of the body
//
// Checksums make corruption a first-class, precisely reported condition:
// LoadIndex and VerifySnapshot distinguish a truncated snapshot
// (ErrSnapshotTruncated — the file ends before declared data) from a
// corrupt one (ErrSnapshotCorrupt — any other magic, a checksum mismatch,
// or structural nonsense inside length-complete data).

var indexMagic = [6]byte{'T', 'S', 'I', 'X', '5', 0}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// maxPayload caps a declared body length (1 TiB) so a corrupt header
	// can neither overflow the int64 LimitReader nor promise absurd work;
	// real bounds come from the bytes that actually arrive.
	maxPayload = 1 << 40
	// maxNextID caps the declared id high-water mark well below int
	// overflow on any platform.
	maxNextID = 1 << 40
	// headerLen is the header's length with its checksum.
	headerLen = 4 + 1 + 8 + 8 + 4
)

// ErrSnapshotCorrupt reports a snapshot whose bytes are all present but
// wrong: a checksum does not match, or a structurally invalid body hides
// behind a matching length. Loaders must refuse to serve from it.
var ErrSnapshotCorrupt = errors.New("snapshot corrupt")

// ErrSnapshotTruncated reports a snapshot that ends early — the classic
// partial write. The prefix that exists may be pristine; there is just
// not enough of it.
var ErrSnapshotTruncated = errors.New("snapshot truncated")

// SaveIndex serializes an index in the TSIX5 format: its live trees only,
// so a deleted tree's text leaves the next snapshot. A sequential index
// has no filter configuration to store and is refused: it is rebuilt from
// its dataset for free.
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
	var body []byte
	gapBase := 0 // one more than the previous tree's id
	for _, sg := range cut.Segments {
		for i, t := range payloadOf(sg).trees {
			id := sg.ID(i)
			if cut.Tombs.Has(id) {
				continue
			}
			s := t.String()
			body = binary.AppendUvarint(body, uint64(id-gapBase))
			body = binary.LittleEndian.AppendUint32(body, uint32(len(s)))
			body = append(body, s...)
			gapBase = id + 1
		}
	}

	// A bufio.Writer's errors are sticky: Flush reports the first.
	bw := bufio.NewWriter(w)
	bw.Write(indexMagic[:])
	bw.Write(encodeHeader(f, cut.NextID, len(body)))
	bw.Write(body)
	bw.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(body, castagnoli)))
	return bw.Flush()
}

// encodeHeader encodes the filter configuration, the id high-water mark
// and the body length with their checksum. The configuration is the branch
// level and a positional byte, always 1: the engine serves no other bound.
func encodeHeader(f *BiBranch, next, bodyLen int) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, headerLen), uint32(f.level()))
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(next))
	b = binary.LittleEndian.AppendUint64(b, uint64(bodyLen))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// LoadIndex deserializes an index saved by SaveIndex into one sealed
// segment over the snapshot's live trees, indexed under the stored filter
// configuration the way NewIndex and compaction index theirs; the id
// high-water mark is kept, so the next insert gets the id it would have
// got before the save. Options configure the loaded index the same way
// they configure NewIndex: cost model, memtable sizing, compaction
// threshold. A filter option replaces the snapshot's filter: the trees are
// indexed under it instead. A nil one is no option, and the snapshot's
// filter stays. Under a cost model that does not report a per-operation
// minimum of at least 1 the index scans sequentially (see WithCostModel).
// With no options the index uses unit edit costs and the default
// execution shape.
//
// Errors satisfy errors.Is against ErrSnapshotTruncated (file ends early)
// or ErrSnapshotCorrupt (wrong magic / checksum mismatch / structural
// damage) so callers can report the failure mode precisely.
func LoadIndex(r io.Reader, opts ...IndexOption) (*Index, error) {
	proto, next, blen, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	ids, trees, err := loadBody(r, blen, next)
	if err != nil {
		return nil, err
	}
	cfg := applyIndexOpts(opts)
	if cfg.filter != nil || cfg.sequential() { // cfg.filter is nil when sequential
		proto = cfg.filter
	}
	return build(cfg, proto, ids, trees, next), nil
}

// readHeader reads what precedes the body — the magic and the header —
// and classifies what is wrong with it. It returns the stored filter
// configuration, the id high-water mark and the body length.
func readHeader(r io.Reader) (*BiBranch, int, int64, error) {
	var magic [6]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("search: %w: reading magic: %v", ErrSnapshotTruncated, err)
	}
	if magic != indexMagic {
		return nil, 0, 0, fmt.Errorf("search: %w: bad magic %q (want %q)", ErrSnapshotCorrupt, magic, indexMagic)
	}
	var h [headerLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("search: %w: reading header: %v", ErrSnapshotTruncated, err)
	}
	le := binary.LittleEndian
	if got, want := crc32.Checksum(h[:headerLen-4], castagnoli), le.Uint32(h[headerLen-4:]); got != want {
		return nil, 0, 0, fmt.Errorf("search: %w: header checksum %08x, trailer says %08x",
			ErrSnapshotCorrupt, got, want)
	}
	q, next, blen := le.Uint32(h[:4]), le.Uint64(h[5:13]), le.Uint64(h[13:21])
	if q < branch.MinQ || q > branch.MaxQ || h[4] != 1 {
		return nil, 0, 0, fmt.Errorf("search: %w: implausible filter configuration q=%d positional=%d",
			ErrSnapshotCorrupt, q, h[4])
	}
	if next > maxNextID || blen > maxPayload {
		return nil, 0, 0, fmt.Errorf("search: %w: implausible next id %d or body length %d",
			ErrSnapshotCorrupt, next, blen)
	}
	return &BiBranch{Q: int(q)}, int(next), int64(blen), nil
}

// loadBody decodes the checksummed body of blen bytes, hashing exactly the
// declared bytes and classifying failures. It returns the trees and their
// ids, every one below next.
func loadBody(r io.Reader, blen int64, next int) ([]int, []*tree.Tree, error) {
	cr := &countingHashReader{r: io.LimitReader(r, blen), h: crc32.New(castagnoli)}
	br := bufio.NewReader(cr)
	ids, ts, derr := decodeBody(br, next)

	// Drain whatever the decoder did not consume — on success this is
	// nothing; on error it completes the checksum so the failure can be
	// classified. A read error here shows as missing bytes below.
	_, _ = io.Copy(io.Discard, br)
	if cr.n < blen {
		return nil, nil, fmt.Errorf("search: %w: body has %d of %d declared bytes",
			ErrSnapshotTruncated, cr.n, blen)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, nil, fmt.Errorf("search: %w: body missing checksum trailer", ErrSnapshotTruncated)
	}
	if got, want := cr.h.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, nil, fmt.Errorf("search: %w: body checksum %08x, trailer says %08x",
			ErrSnapshotCorrupt, got, want)
	}
	// Checksum matched: the bytes are exactly what the writer produced, so
	// any remaining failure is structural corruption (or a writer bug),
	// not I/O damage.
	if derr != nil {
		return nil, nil, fmt.Errorf("search: %w: %v", ErrSnapshotCorrupt, derr)
	}
	return ids, ts, nil
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
	_, _, blen, err := readHeader(r)
	if err != nil {
		return err
	}
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, io.LimitReader(r, blen))
	if err != nil {
		return fmt.Errorf("search: verifying snapshot: %w", err)
	}
	if n < blen {
		return fmt.Errorf("search: %w: body has %d of %d declared bytes", ErrSnapshotTruncated, n, blen)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return fmt.Errorf("search: %w: body missing checksum trailer", ErrSnapshotTruncated)
	}
	if want := binary.LittleEndian.Uint32(trailer[:]); h.Sum32() != want {
		return fmt.Errorf("search: %w: body checksum %08x, trailer says %08x",
			ErrSnapshotCorrupt, h.Sum32(), want)
	}
	return nil
}

// decodeBody reads (id gap, tree) records until the body ends.
//
// Only the bytes that arrive vouch for the body, so nothing is sized in
// advance: the slices grow as tree bytes actually arrive, and a lying
// length dies on EOF having cost what was read. The tree blobs are read
// sequentially (the stream dictates it) but parsed in parallel: each
// parses independently. The first error in dataset order wins, keeping
// failure messages identical to a sequential decoder's.
func decodeBody(br *bufio.Reader, next int) ([]int, []*tree.Tree, error) {
	var ids []int
	var blobs [][]byte
	var u32 [4]byte
	id := -1
	for {
		gap, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if gap >= uint64(next-id-1) {
			return nil, nil, fmt.Errorf("search: tree %d: id gap %d passes the next id %d", len(ids), gap, next)
		}
		id += int(gap) + 1
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, nil, err
		}
		l := int64(binary.LittleEndian.Uint32(u32[:]))
		buf, err := io.ReadAll(io.LimitReader(br, l))
		if err != nil {
			return nil, nil, err
		}
		if int64(len(buf)) < l {
			return nil, nil, fmt.Errorf("search: tree %d: %w", id, io.ErrUnexpectedEOF)
		}
		ids = append(ids, id)
		blobs = append(blobs, buf)
	}

	trees := make([]*tree.Tree, len(blobs))
	errs := make([]error, len(blobs))
	forEach(len(blobs), func(i int) {
		t, err := tree.Parse(string(blobs[i]))
		if err != nil {
			errs[i] = fmt.Errorf("search: tree %d: %w", ids[i], err)
			return
		}
		trees[i] = t
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return ids, trees, nil
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
