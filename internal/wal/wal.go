// Package wal is an append-only, segmented write-ahead log: the
// durability floor under the treesimd server's live writes. An insert or
// delete is acknowledged only after its record is appended here (and,
// under the default policy, fsynced), so a crash at any point loses
// nothing that was acknowledged — recovery is snapshot-load followed by
// replay of this log.
//
// The log is a sequence of segment files, rotated when the active one
// reaches Options.MaxSegmentBytes:
//
//	<base>-000001.log, <base>-000002.log, ...
//
// where <base> is the configured path with its extension stripped
// ("index.wal" → "index-000001.log"); the configured path itself names no
// file, and one found there is refused. Each segment is self-framed:
//
//	magic "TSWL1\x00"
//	records, each: u32 payload length | u32 CRC32C(payload) | payload
//
// All integers are little-endian; the checksum is CRC32-Castagnoli. The
// format is designed for crash recovery rather than error correction:
// Replay delivers records in order across segment boundaries and stops
// cleanly at the first torn or corrupt record (a partial header, a
// partial payload, an implausible length, or a checksum mismatch),
// treating everything before it as the durable prefix. Open discards such
// a tail before appending, so a log that survived a crash mid-append
// keeps accepting records.
//
// Positions (Offset, TrimPrefix) are logical and strictly monotonic
// across rotations: segment sequence number in the high bits, byte offset
// within the segment in the low bits. Trimming deletes whole segments
// below the cut, so checkpoint-driven truncation is O(segments), never a
// rewrite of live records — and recovery time is bounded by checkpoint
// age, not corpus age.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"treesim/internal/faultfs"
	"treesim/internal/obs"
)

// MaxRecord caps one record's payload, mirroring the codec's tree cap: a
// length prefix beyond it is treated as corruption, never as an
// allocation request.
const MaxRecord = 1 << 26

var magic = [6]byte{'T', 'S', 'W', 'L', '1', 0}

const headerLen = int64(len(magic))

// recordHeader is u32 length + u32 CRC32C.
const recordHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// offBits is how many low bits of a position hold the in-segment byte
// offset; segments are capped far below 2^40 bytes (1 TiB).
const offBits = 40

// pos packs (segment sequence, in-segment offset) into one monotonic
// int64: rotation bumps the sequence, appending bumps the offset.
func pos(seq, off int64) int64 { return seq<<offBits | off }

// seqOf extracts the segment sequence a position falls in.
func seqOf(p int64) int64 { return p >> offBits }

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record
	// survives power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: records survive a process
	// crash but a power cut may lose the recently appended tail.
	SyncNever
)

// ParseSyncPolicy maps the flag spellings "always" and "never" (also
// "none") to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never", "none":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always or never)", s)
}

// Options tunes Open; the zero value is SyncAlways on the real
// filesystem with no rotation.
type Options struct {
	Sync SyncPolicy
	// FS is the filesystem to write through; nil means the real one.
	// Tests inject faults here (see internal/faultfs).
	FS faultfs.FS
	// MaxSegmentBytes rotates the active segment once it reaches this
	// size, bounding both the unit of trimming and the tail a recovery
	// replays past the last checkpoint. 0 disables rotation (one segment
	// grows unbounded, trimmed only at full-coverage checkpoints).
	MaxSegmentBytes int64
	// AppendHist, when non-nil, records the wall time of each successful
	// Append (write plus any policy fsync) in seconds — the latency an
	// insert pays for durability before it can be acknowledged.
	AppendHist *obs.Histogram
	// FsyncHist, when non-nil, records the wall time of each fsync issued
	// by the log (per-record under SyncAlways, plus explicit Sync calls).
	FsyncHist *obs.Histogram
}

func (o Options) fs() faultfs.FS {
	if o.FS == nil {
		return faultfs.OS
	}
	return o.FS
}

// ErrTooLarge rejects appends beyond MaxRecord.
var ErrTooLarge = errors.New("wal: record exceeds MaxRecord")

// segment is one on-disk file of the log.
type segment struct {
	seq  int64
	path string
	recs int   // valid records
	size int64 // end of the valid record prefix (bytes, incl. header)
}

// Log is an open write-ahead log. Methods are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	fs   faultfs.FS
	f    faultfs.File // active (last) segment, positioned at its valid end
	path string       // configured base path
	opts Options
	segs []segment // ascending seq; last is active
	// broken is set when a failed append could not be rolled back: the
	// file may end in a torn record that later appends must not follow
	// (replay would never reach them).
	broken error
}

// segName returns the file name of segment seq for a configured path:
// the path with its extension stripped, "-<seq, 6 digits>.log" appended.
func segName(path string, seq int64) string {
	base := strings.TrimSuffix(path, filepath.Ext(path))
	return fmt.Sprintf("%s-%06d.log", base, seq)
}

// segSeq parses a segment file name back to its sequence number, or -1.
func segSeq(path, name string) int64 {
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(filepath.Base(path)))
	rest, ok := strings.CutPrefix(name, base+"-")
	if !ok {
		return -1
	}
	digits, ok := strings.CutSuffix(rest, ".log")
	if !ok || len(digits) < 6 {
		return -1
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n <= 0 {
		return -1
	}
	return n
}

// listSegments returns the existing segment files for path in ascending
// sequence order. An entry at the bare path is an error: it is not a
// segment, so the log would never read it, and whoever put it there
// expects it to be read.
func listSegments(fsys faultfs.FS, path string) ([]segment, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	var segs []segment
	for _, name := range names {
		if name == base {
			return nil, fmt.Errorf("wal: %s exists, but the log lives in segment files (%s, ...): move it away", path, segName(path, 1))
		}
		if seq := segSeq(path, name); seq > 0 {
			segs = append(segs, segment{seq: seq, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// Open opens (creating if absent) the segmented log rooted at path for
// appending. A torn or corrupt tail left by a crash is truncated
// away, so the returned log appends after the last valid record; segments
// stranded beyond a mid-log tear (unreachable by Replay's stop-at-first-
// tear contract) are removed so future appends stay replayable. Replay
// the log before opening it for append when recovering state.
func Open(path string, opts Options) (*Log, error) {
	fsys := opts.fs()
	segs, err := listSegments(fsys, path)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fsys, path: path, opts: opts}
	if len(segs) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}

	// Scan every segment, locating the end of the valid record stream.
	for i := range segs {
		f, err := fsys.OpenFile(segs[i].path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment: %w", err)
		}
		res, err := scan(f, nil)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: segment %s: %w", segs[i].path, err)
		}
		segs[i].recs = res.Records
		segs[i].size = res.validBytes
		last := i == len(segs)-1
		if res.Torn || res.fresh {
			// The valid stream ends inside this segment. Truncate the
			// tear away and drop any later segments: records there are
			// unreachable (Replay stops at the first tear) and appending
			// behind them would hide new records the same way.
			if err := f.Truncate(res.validBytes); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			if res.fresh && res.validBytes == headerLen {
				// A crash may have left a zero-byte or partial-header
				// file; rewrite the header so the segment self-frames.
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					f.Close()
					return nil, fmt.Errorf("wal: rewriting header: %w", err)
				}
				if err := f.Truncate(0); err != nil {
					f.Close()
					return nil, fmt.Errorf("wal: rewriting header: %w", err)
				}
				if _, err := f.Write(magic[:]); err != nil {
					f.Close()
					return nil, fmt.Errorf("wal: rewriting header: %w", err)
				}
			}
			for _, dead := range segs[i+1:] {
				if err := fsys.Remove(dead.path); err != nil {
					f.Close()
					return nil, fmt.Errorf("wal: removing unreachable segment: %w", err)
				}
			}
			segs = segs[:i+1]
			last = true
		}
		if !last {
			f.Close()
			continue
		}
		if _, err := f.Seek(segs[i].size, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seeking to append position: %w", err)
		}
		l.f = f
		break
	}
	l.segs = segs
	if err := l.maybeSync(); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// createSegment makes segment seq the active one: file created, header
// written and synced, directory synced. Called with mu held (or before
// the log is shared).
func (l *Log) createSegment(seq int64) error {
	path := segName(l.path, seq)
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if l.opts.Sync != SyncNever {
		if err := l.fsyncFile(f); err != nil {
			f.Close()
			return fmt.Errorf("wal: syncing segment header: %w", err)
		}
		if err := l.fs.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return fmt.Errorf("wal: syncing segment dir: %w", err)
		}
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.segs = append(l.segs, segment{seq: seq, path: path, size: headerLen})
	return nil
}

// active returns the last (append-target) segment. Called with mu held.
func (l *Log) active() *segment { return &l.segs[len(l.segs)-1] }

// rotate seals the active segment and opens the next one. The old
// segment is fsynced first so its records are durable independent of the
// sync policy — a sealed segment is never written again. Called with mu
// held.
func (l *Log) rotate() error {
	if err := l.fsyncFile(l.f); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	return l.createSegment(l.active().seq + 1)
}

// Append adds one record and, under SyncAlways, fsyncs it. When Append
// returns nil the record will be delivered by every future Replay; when
// it returns an error the log rolls back to its previous state (or, if
// the rollback itself fails, refuses all further appends). The active
// segment rotates first when it has reached Options.MaxSegmentBytes.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w (%d bytes)", ErrTooLarge, len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("wal: log damaged by earlier failed append: %w", l.broken)
	}
	if max := l.opts.MaxSegmentBytes; max > 0 && l.active().size >= max && l.active().size > headerLen {
		// A failed rotation leaves the current segment active and intact;
		// the caller sees the error (degraded mode) and the next append
		// retries the rotation.
		if err := l.rotate(); err != nil {
			return err
		}
	}
	start := time.Now()
	buf := make([]byte, recordHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[recordHeader:], payload)

	if _, err := l.f.Write(buf); err != nil {
		l.rollback()
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.maybeSync(); err != nil {
		// The bytes hit the file but the append is refused, so the
		// record must not stay in the logical log: the caller's next
		// append would reuse its position, and replay — which keeps the
		// first record for a position and skips the second — would drop
		// the acknowledged one in favor of the refused one. Roll back;
		// if even that fails the log marks itself broken and refuses
		// further appends, which keeps positions unique.
		l.rollback()
		return fmt.Errorf("wal: append sync: %w", err)
	}
	l.active().size += int64(len(buf))
	l.active().recs++
	l.opts.AppendHist.ObserveDuration(time.Since(start))
	return nil
}

// rollback restores the active segment to the last valid prefix after a
// failed write; if that fails too, the log refuses further appends.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.active().size); err != nil {
		l.broken = err
		return
	}
	if _, err := l.f.Seek(l.active().size, io.SeekStart); err != nil {
		l.broken = err
	}
}

func (l *Log) maybeSync() error {
	if l.opts.Sync == SyncNever {
		return nil
	}
	return l.fsyncFile(l.f)
}

// fsyncFile times the flush into the fsync histogram; failures are
// observed too — a slow failing disk is exactly what the histogram
// should show.
func (l *Log) fsyncFile(f faultfs.File) error {
	start := time.Now()
	err := f.Sync()
	l.opts.FsyncHist.ObserveDuration(time.Since(start))
	return err
}

// Sync forces the log to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fsyncFile(l.f)
}

// Offset returns the logical position where the valid record prefix ends
// (the append position): segment sequence in the high bits, in-segment
// byte offset in the low bits — strictly monotonic across rotations. A
// snapshot captures it before its consistent cut and hands it to
// TrimPrefix afterwards: every record below the position is covered by
// the snapshot.
func (l *Log) Offset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.active()
	return pos(a.seq, a.size)
}

// Records returns how many valid records the log holds.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.segs {
		n += s.recs
	}
	return n
}

// Segments returns how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Bytes returns the total valid bytes across all live segments — with
// Segments, the checkpoint-health gauge pair: a growing byte count means
// snapshots are falling behind the write rate.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// Path returns the log's configured base path.
func (l *Log) Path() string { return l.path }

// SegmentPath returns the on-disk file that holds segment seq of the log
// rooted at path — for tools and tests that inspect the raw files.
func SegmentPath(path string, seq int64) string { return segName(path, seq) }

// TrimPrefix drops records below off — a value previously returned by
// Offset — by deleting every sealed segment whose records all lie under
// it; a segment the cut falls inside is kept intact (its covered records
// replay idempotently). When off is the exact end of the log, the active
// segment rotates first so every covered segment can go and the log
// comes back empty. Deletion is per-file and crash-atomic: a crash
// mid-trim leaves a subset of the covered segments, never a damaged
// record stream.
func (l *Log) TrimPrefix(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("wal: trim on damaged log: %w", l.broken)
	}
	if off <= 0 {
		return nil
	}
	a := l.active()
	end := pos(a.seq, a.size)
	if off > end {
		return fmt.Errorf("wal: trim offset %d beyond valid prefix %d", off, end)
	}
	if off == end && a.size > headerLen {
		// Everything is covered: rotate so the (now sealed) segment is
		// fully below the cut and gets deleted with the rest.
		if err := l.rotate(); err != nil {
			return fmt.Errorf("wal: trim rotate: %w", err)
		}
	}
	kept := l.segs[:0]
	removed := false
	for i, s := range l.segs {
		active := i == len(l.segs)-1
		if !active && pos(s.seq, s.size) <= off {
			if err := l.fs.Remove(s.path); err != nil {
				return fmt.Errorf("wal: trim remove: %w", err)
			}
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	if removed {
		if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
			return fmt.Errorf("wal: trim dir sync: %w", err)
		}
	}
	return nil
}

// Close syncs (under SyncAlways) and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.maybeSync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// ReplayResult describes what Replay (or Open's internal scan) found.
type ReplayResult struct {
	Records  int   // valid records delivered
	Segments int   // segment files the valid prefix spans
	EndPos   int64 // logical position where the valid prefix ends
	Torn     bool  // a torn/corrupt tail followed the valid prefix

	validBytes int64 // in-file offset of the prefix end (single scan)
	fresh      bool  // file absent or empty (no complete header)
}

// Replay reads the log rooted at path — segment files in sequence order —
// calling fn for each valid record in order, and stops cleanly at the
// first torn or corrupt record — the contract that makes the log safe to
// append to without write barriers: a crash mid-append tears only the
// final record, and recovery keeps everything acknowledged before it. A
// missing or empty log replays zero records. fn's error aborts the
// replay and is returned wrapped; fn may retain payload only by copying
// it.
func Replay(path string, fsys faultfs.FS, fn func(payload []byte) error) (ReplayResult, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	segs, err := listSegments(fsys, path)
	if err != nil {
		return ReplayResult{}, err
	}
	if len(segs) == 0 {
		return ReplayResult{fresh: true, EndPos: pos(1, headerLen)}, nil
	}
	var out ReplayResult
	for _, s := range segs {
		f, err := fsys.OpenFile(s.path, os.O_RDONLY, 0)
		if err != nil {
			return out, fmt.Errorf("wal: replay open: %w", err)
		}
		res, err := scan(f, func(p []byte) error {
			if fn == nil {
				return nil
			}
			return fn(p)
		})
		f.Close()
		if err != nil {
			return out, fmt.Errorf("wal: segment %s: %w", s.path, err)
		}
		out.Records += res.Records
		out.Segments++
		out.EndPos = pos(s.seq, res.validBytes)
		if res.Torn {
			// Records in later segments are beyond the tear: the valid
			// prefix ends here, by contract.
			out.Torn = true
			return out, nil
		}
	}
	return out, nil
}

// scan walks the record stream from the start of f, delivering payloads
// to fn (when non-nil) and locating the end of the valid prefix.
func scan(f faultfs.File, fn func([]byte) error) (ReplayResult, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return ReplayResult{}, fmt.Errorf("wal: scan: %w", err)
	}
	var hdr [6]byte
	if _, err := io.ReadFull(f, hdr[:]); err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		// Empty or partial-header file: a crash during segment creation.
		// Nothing is recorded here.
		return ReplayResult{fresh: true, validBytes: headerLen}, nil
	} else if err != nil {
		return ReplayResult{}, fmt.Errorf("wal: reading header: %w", err)
	}
	if hdr != magic {
		return ReplayResult{}, fmt.Errorf("wal: bad magic %q (not a WAL file)", hdr)
	}

	res := ReplayResult{validBytes: headerLen}
	var rh [recordHeader]byte
	for {
		n, err := io.ReadFull(f, rh[:])
		if n == 0 && err == io.EOF {
			return res, nil // clean end
		}
		if err != nil {
			res.Torn = true // partial record header
			return res, nil
		}
		ln := binary.LittleEndian.Uint32(rh[0:4])
		want := binary.LittleEndian.Uint32(rh[4:8])
		if ln > MaxRecord {
			res.Torn = true // implausible length: corrupt, not an alloc
			return res, nil
		}
		payload := make([]byte, ln)
		if _, err := io.ReadFull(f, payload); err != nil {
			res.Torn = true // partial payload
			return res, nil
		}
		if crc32.Checksum(payload, castagnoli) != want {
			res.Torn = true // bit rot or torn overwrite
			return res, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return res, fmt.Errorf("wal: replay record %d: %w", res.Records, err)
			}
		}
		res.Records++
		res.validBytes += recordHeader + int64(ln)
	}
}
