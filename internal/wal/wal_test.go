package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treesim/internal/faultfs"
	"treesim/internal/obs"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "insert.wal")
}

// seg returns the on-disk file of segment n for a configured path —
// where the data actually lives; the configured path itself only names
// the log.
func seg(path string, n int) string { return segName(path, int64(n)) }

// collect replays the log into a slice of payload copies.
func collect(t *testing.T, path string) ([][]byte, ReplayResult) {
	t.Helper()
	var got [][]byte
	res, err := Replay(path, nil, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, res
}

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatalf("append %q: %v", p, err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "", "third record with some length", "4"}
	appendAll(t, l, want...)
	if l.Records() != 4 {
		t.Fatalf("Records() = %d, want 4", l.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, res := collect(t, path)
	if res.Torn || res.Records != 4 {
		t.Fatalf("replay result %+v, want 4 clean records", res)
	}
	for i, w := range want {
		if string(got[i]) != w {
			t.Fatalf("record %d = %q, want %q", i, got[i], w)
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	got, res := collect(t, filepath.Join(t.TempDir(), "nope.wal"))
	if len(got) != 0 || res.Records != 0 || res.Torn {
		t.Fatalf("missing file replayed %d records, %+v", len(got), res)
	}
}

func TestReplayRejectsForeignFile(t *testing.T) {
	path := walPath(t)
	os.WriteFile(seg(path, 1), []byte("definitely not a WAL"), 0o644)
	if _, err := Replay(path, nil, nil); err == nil {
		t.Fatal("foreign file replayed without error")
	}
}

// TestFileAtBareLogPathRefused: the log lives in segment files only, so a
// file at the configured path itself — a single-file log, say — is
// refused by name instead of being silently left unread, and is left
// where it was.
func TestFileAtBareLogPathRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "insert.wal")
	// A segment file moved to the bare path: valid records, wrong place.
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "old-1", "old-2")
	l.Close()
	if err := os.Rename(seg(path, 1), path); err != nil {
		t.Fatal(err)
	}

	if _, err := Replay(path, nil, nil); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Replay with a file at the bare path: err %v, want one naming %s", err, path)
	}
	if l, err := Open(path, Options{}); err == nil || !strings.Contains(err.Error(), path) {
		if l != nil {
			l.Close()
		}
		t.Fatalf("Open with a file at the bare path: err %v, want one naming %s", err, path)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != filepath.Base(path) {
		t.Fatalf("refusal changed the directory: %v", names)
	}
}

// TestRotationSplitsSegments: with a small segment cap, appends rotate
// into new files; replay crosses the boundaries in order and Offset stays
// strictly monotonic across them.
func TestRotationSplitsSegments(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	prev := int64(0)
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("record-%d", i)
		want = append(want, p)
		appendAll(t, l, p)
		if off := l.Offset(); off <= prev {
			t.Fatalf("Offset not monotonic across rotation: %d then %d", prev, off)
		} else {
			prev = off
		}
	}
	if l.Segments() != 5 {
		t.Fatalf("Segments() = %d, want 5 (one record each)", l.Segments())
	}
	if l.Bytes() <= 0 {
		t.Fatalf("Bytes() = %d", l.Bytes())
	}
	l.Close()

	got, res := collect(t, path)
	if res.Torn || res.Records != 5 || res.Segments != 5 {
		t.Fatalf("replay %+v, want 5 records over 5 segments", res)
	}
	for i, w := range want {
		if string(got[i]) != w {
			t.Fatalf("record %d = %q, want %q", i, got[i], w)
		}
	}
}

// TestReopenAcrossSegments: a restarted process opens the multi-segment
// log and keeps appending into the last segment.
func TestReopenAcrossSegments(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b", "c")
	l.Close()

	l, err = Open(path, Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Records() != 3 || l.Segments() != 3 {
		t.Fatalf("reopened: %d records in %d segments", l.Records(), l.Segments())
	}
	appendAll(t, l, "d")
	l.Close()
	got, res := collect(t, path)
	if res.Records != 4 || string(got[3]) != "d" {
		t.Fatalf("after reopen %q (%+v)", got, res)
	}
}

// TestTornTailRecoversPrefix truncates the active segment at every byte
// boundary of the final record: replay must always deliver the full
// prefix and flag (but not fail on) the tear.
func TestTornTailRecoversPrefix(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "alpha", "beta", "gamma-the-last")
	l.Close()
	full, err := os.ReadFile(seg(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	twoEnd := len(full) - recordHeader - len("gamma-the-last")

	for cut := twoEnd + 1; cut < len(full); cut++ {
		if err := os.WriteFile(seg(path, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := collect(t, path)
		if !res.Torn {
			t.Fatalf("cut at %d: tear not detected", cut)
		}
		if res.Records != 2 || len(got) != 2 || string(got[0]) != "alpha" || string(got[1]) != "beta" {
			t.Fatalf("cut at %d: recovered %d records %q, want the 2-record prefix", cut, res.Records, got)
		}
		if res.EndPos != pos(1, int64(twoEnd)) {
			t.Fatalf("cut at %d: valid prefix ends at %d, want %d", cut, res.EndPos, pos(1, int64(twoEnd)))
		}
	}
}

// TestTornTombstoneAtRotationBoundary: the tear lands inside a 9-byte
// tombstone record that rotation made the first record of a fresh
// segment — the smallest extended record at the trickiest position.
// Every prefix of it must replay to exactly the sealed segment's
// records, and Open must truncate the tear and accept new appends.
func TestTornTombstoneAtRotationBoundary(t *testing.T) {
	path := walPath(t)
	insert := EncodeInsert(0, "a(b,c)")
	// Cap the segment at exactly its size after the insert: the next
	// append rotates first, so the tombstone opens segment 2.
	max := headerLen + int64(recordHeader+len(insert))
	l, err := Open(path, Options{MaxSegmentBytes: max})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(insert); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(EncodeTombstone(0)); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 2 {
		t.Fatalf("Segments() = %d, want the tombstone rotated into segment 2", l.Segments())
	}
	l.Close()

	full, err := os.ReadFile(seg(path, 2))
	if err != nil {
		t.Fatal(err)
	}
	if want := int(headerLen) + recordHeader + 9; len(full) != want {
		t.Fatalf("segment 2 is %d bytes, want magic + framed 9-byte tombstone = %d", len(full), want)
	}

	for cut := int(headerLen); cut < len(full); cut++ {
		if err := os.WriteFile(seg(path, 2), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := collect(t, path)
		if res.Records != 1 || len(got) != 1 || !bytes.Equal(got[0], insert) {
			t.Fatalf("cut at %d: recovered %d records, want just the sealed insert", cut, res.Records)
		}
		if torn := cut > int(headerLen); res.Torn != torn {
			t.Fatalf("cut at %d: Torn = %v, want %v", cut, res.Torn, torn)
		}
	}

	// Open on the worst tear (one byte short of complete) truncates it
	// and the log keeps accepting records.
	if err := os.WriteFile(seg(path, 2), full[:len(full)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(path, Options{MaxSegmentBytes: max})
	if err != nil {
		t.Fatal(err)
	}
	if l.Records() != 1 {
		t.Fatalf("reopened log sees %d records, want 1", l.Records())
	}
	if err := l.Append(EncodeTombstone(0)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, res := collect(t, path)
	if res.Torn || res.Records != 2 || !bytes.Equal(got[1], EncodeTombstone(0)) {
		t.Fatalf("after reopen: %q (%+v), want insert + retried tombstone", got, res)
	}
}

// TestCorruptTailRecoversPrefix flips one byte in the final record (header
// and payload positions): checksum or length validation must stop replay
// at the tear with the prefix intact.
func TestCorruptTailRecoversPrefix(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "alpha", "beta", "gamma-the-last")
	l.Close()
	full, err := os.ReadFile(seg(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	twoEnd := len(full) - recordHeader - len("gamma-the-last")

	for flip := twoEnd; flip < len(full); flip++ {
		mut := append([]byte(nil), full...)
		mut[flip] ^= 0x40
		if err := os.WriteFile(seg(path, 1), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := collect(t, path)
		if res.Records != 2 || len(got) != 2 {
			t.Fatalf("flip at %d: recovered %d records, want 2", flip, res.Records)
		}
		if !res.Torn {
			t.Fatalf("flip at %d: corruption not flagged", flip)
		}
	}
}

// TestCorruptMiddleStopsThere: a bit flip in an interior record ends the
// valid prefix at that record; later (physically intact) records — even
// whole later segments — are not delivered, and Open removes them so
// appends stay replayable. Order is part of the contract.
func TestCorruptMiddleStopsThere(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "alpha", "beta", "gamma")
	l.Close()
	// Flip a payload byte of "beta" (segment 2's first record).
	full, _ := os.ReadFile(seg(path, 2))
	mut := append([]byte(nil), full...)
	mut[int(headerLen)+recordHeader] ^= 0x01
	os.WriteFile(seg(path, 2), mut, 0o644)

	got, res := collect(t, path)
	if len(got) != 1 || string(got[0]) != "alpha" || !res.Torn {
		t.Fatalf("corrupt middle segment: replayed %q (%+v), want just [alpha]", got, res)
	}

	l, err = Open(path, Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Records() != 1 {
		t.Fatalf("reopened log sees %d records, want 1", l.Records())
	}
	if _, err := os.Stat(seg(path, 3)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("segment beyond the tear not removed — its records are unreachable")
	}
	appendAll(t, l, "delta")
	l.Close()
	got, res = collect(t, path)
	if res.Torn || res.Records != 2 || string(got[1]) != "delta" {
		t.Fatalf("after reopen %q (%+v)", got, res)
	}
}

// TestOpenTruncatesTornTailAndAppends: after a crash mid-append, Open
// discards the tear so new appends land where replay will find them.
func TestOpenTruncatesTornTailAndAppends(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "alpha", "beta")
	l.Close()
	full, _ := os.ReadFile(seg(path, 1))
	os.WriteFile(seg(path, 1), full[:len(full)-3], 0o644) // tear "beta"

	l, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Records() != 1 {
		t.Fatalf("reopened log sees %d records, want 1", l.Records())
	}
	appendAll(t, l, "gamma")
	l.Close()

	got, res := collect(t, path)
	if res.Torn || res.Records != 2 {
		t.Fatalf("after reopen+append: %+v, want 2 clean records", res)
	}
	if string(got[0]) != "alpha" || string(got[1]) != "gamma" {
		t.Fatalf("records %q, want [alpha gamma]", got)
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	l, err := Open(walPath(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: %v, want ErrTooLarge", err)
	}
}

// TestFailedWriteRollsBack: an injected write failure must leave the log
// exactly as before — the next append succeeds and replay never sees the
// failed record.
func TestFailedWriteRollsBack(t *testing.T) {
	path := walPath(t)
	in := &faultfs.Injector{}
	l, err := Open(path, Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "good-1")
	in.SetFailWriteN(in.Writes() + 1) // fail the next record write
	if err := l.Append([]byte("never-acked")); err == nil {
		t.Fatal("append with injected write failure succeeded")
	}
	appendAll(t, l, "good-2")
	l.Close()

	got, res := collect(t, path)
	if res.Torn || res.Records != 2 {
		t.Fatalf("%+v, want 2 clean records", res)
	}
	if string(got[0]) != "good-1" || string(got[1]) != "good-2" {
		t.Fatalf("records %q", got)
	}
}

// TestSyncFailureRollsBack: a record whose bytes landed but whose fsync
// failed was never acknowledged, so it must not stay in the log — if it
// did, the next append would reuse its position and replay (first
// record per position wins) would drop the acknowledged record in favor
// of the refused one.
func TestSyncFailureRollsBack(t *testing.T) {
	path := walPath(t)
	in := &faultfs.Injector{}
	l, err := Open(path, Options{FS: in, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "acked-1")
	in.SetFailSync(true)
	if err := l.Append([]byte("refused-by-sync")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	in.SetFailSync(false) // the disk heals
	appendAll(t, l, "acked-2")
	l.Close()

	got, res := collect(t, path)
	if res.Torn || res.Records != 2 {
		t.Fatalf("%+v, want 2 clean records", res)
	}
	if string(got[0]) != "acked-1" || string(got[1]) != "acked-2" {
		t.Fatalf("records %q, refused record must not survive", got)
	}
}

// TestShortWriteTornRecordRecovered: a short (torn) write that the
// process never gets to roll back — it "crashes" immediately — leaves a
// tail that replay discards and Open truncates.
func TestShortWriteTornRecordRecovered(t *testing.T) {
	path := walPath(t)
	in := &faultfs.Injector{}
	l, err := Open(path, Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "durable")
	in.SetShortWriteN(in.Writes() + 1)
	in.SetCrashAfterWriteN(in.Writes() + 1) // no rollback: truncate fails too
	if err := l.Append([]byte("torn-record-payload")); err == nil {
		t.Fatal("short write acked")
	}
	// The process is gone; a new one replays what's on disk.
	got, res := collect(t, path)
	if res.Records != 1 || string(got[0]) != "durable" {
		t.Fatalf("recovered %q (%+v), want [durable]", got, res)
	}
	if !res.Torn {
		t.Fatal("torn tail not flagged")
	}
}

// TestCrashBetweenAppends: records acked before the crash survive.
func TestCrashBetweenAppends(t *testing.T) {
	path := walPath(t)
	in := &faultfs.Injector{}
	l, err := Open(path, Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "first", "second")
	in.SetCrashAfterWriteN(in.Writes()) // crash now
	l.f.Write([]byte{0})                // trip the crash
	if err := l.Append([]byte("after-crash")); err == nil {
		t.Fatal("append after crash acked")
	}
	got, res := collect(t, path)
	if res.Records != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("recovered %q (%+v), want the 2 acked records", got, res)
	}
}

// TestTrimPrefix: trimming to a checkpoint cut deletes exactly the
// segments whose records are all covered — including the one the cut
// ends on — and the log keeps accepting appends.
func TestTrimPrefix(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "covered-1", "covered-2")
	cut := l.Offset()
	appendAll(t, l, "uncovered-3")
	if err := l.TrimPrefix(cut); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if l.Records() != 1 {
		t.Fatalf("after trim Records() = %d, want 1", l.Records())
	}
	for _, n := range []int{1, 2} {
		if _, err := os.Stat(seg(path, n)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("covered segment %d survived the trim", n)
		}
	}
	// The log keeps accepting appends after the trim.
	appendAll(t, l, "uncovered-4")
	l.Close()

	got, res := collect(t, path)
	if res.Torn || res.Records != 2 {
		t.Fatalf("%+v, want 2 records", res)
	}
	if string(got[0]) != "uncovered-3" || string(got[1]) != "uncovered-4" {
		t.Fatalf("records %q, want the uncovered suffix", got)
	}
}

// TestTrimPrefixMidSegment: a cut inside a segment keeps that whole
// segment — covered records replay idempotently; nothing is rewritten.
func TestTrimPrefixMidSegment(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "covered-1")
	cut := l.Offset()
	appendAll(t, l, "uncovered-2")
	if err := l.TrimPrefix(cut); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 2 {
		t.Fatalf("mid-segment trim dropped records: %d, want 2 (kept intact)", l.Records())
	}
	l.Close()
	_, res := collect(t, path)
	if res.Records != 2 {
		t.Fatalf("%+v", res)
	}
}

func TestTrimPrefixWholeLog(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b", "c")
	before := l.Offset()
	if err := l.TrimPrefix(before); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 0 {
		t.Fatalf("Records() = %d after full trim", l.Records())
	}
	if after := l.Offset(); after <= before {
		t.Fatalf("full trim moved Offset backwards: %d then %d", before, after)
	}
	appendAll(t, l, "fresh")
	l.Close()
	got, res := collect(t, path)
	if res.Records != 1 || string(got[0]) != "fresh" {
		t.Fatalf("recovered %q (%+v)", got, res)
	}
}

// TestTrimCrashKeepsUncovered: a crash midway through the trim's
// per-segment deletions leaves a subset of the covered segments gone;
// replay of what remains still yields every uncovered record.
func TestTrimCrashKeepsUncovered(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "covered-1", "covered-2", "uncovered")
	l.Close()
	// Simulate the crash state: the trim removed segment 1, died before
	// segment 2.
	if err := os.Remove(seg(path, 1)); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, path)
	if res.Torn || res.Records != 2 {
		t.Fatalf("recovered %d records (%+v)", res.Records, res)
	}
	if string(got[1]) != "uncovered" {
		t.Fatalf("uncovered record lost: %q", got)
	}
	// A restart opens the gapped log and finishes normally.
	l, err = Open(path, Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Records() != 2 {
		t.Fatalf("reopened %d records, want 2", l.Records())
	}
	l.Close()
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncNever} {
		path := walPath(t)
		l, err := Open(path, Options{Sync: pol})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, fmt.Sprintf("policy-%d", pol))
		if err := l.Sync(); err != nil { // manual sync always works
			t.Fatal(err)
		}
		l.Close()
		_, res := collect(t, path)
		if res.Records != 1 {
			t.Fatalf("policy %d: %d records", pol, res.Records)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "never": SyncNever, "none": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestBinaryPayloads: binary payloads with embedded zeros and high bytes
// survive byte-exact.
func TestBinaryPayloads(t *testing.T) {
	path := walPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, _ := collect(t, path)
	if !bytes.Equal(got[0], payload) {
		t.Fatal("binary payload mangled")
	}
}

// TestAppendFsyncHistograms: every successful append lands in the append
// histogram, and the fsync histogram follows the sync policy — one flush
// per record under SyncAlways, none under SyncNever.
func TestAppendFsyncHistograms(t *testing.T) {
	appendH := obs.NewHistogram(obs.DefDurationBuckets)
	fsyncH := obs.NewHistogram(obs.DefDurationBuckets)
	l, err := Open(walPath(t), Options{AppendHist: appendH, FsyncHist: fsyncH})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil { // explicit sync counts too
		t.Fatal(err)
	}
	l.Close()

	if got := appendH.Snapshot().Count; got != 3 {
		t.Errorf("append histogram count %d, want 3", got)
	}
	// Header write at Open + 3 per-record syncs + 1 explicit + 1 at Close.
	if got := fsyncH.Snapshot().Count; got != 6 {
		t.Errorf("fsync histogram count %d, want 6", got)
	}
	if s := appendH.Snapshot(); s.Sum <= 0 {
		t.Errorf("append histogram sum %v, want > 0", s.Sum)
	}

	// SyncNever: appends recorded, no fsyncs (and nil histograms are fine).
	fsyncH2 := obs.NewHistogram(obs.DefDurationBuckets)
	l2, err := Open(walPath(t), Options{Sync: SyncNever, FsyncHist: fsyncH2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if got := fsyncH2.Snapshot().Count; got != 0 {
		t.Errorf("SyncNever issued %d fsyncs", got)
	}
}
