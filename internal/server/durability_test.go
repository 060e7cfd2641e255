package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"treesim/internal/faultfs"
	"treesim/internal/search"
	"treesim/internal/wal"
)

// These tests prove the durability contract end to end: an insert the
// server acknowledged survives any single crash point. Each scenario
// "crashes" by abandoning the in-memory server and rebuilding a fresh one
// from nothing but the on-disk snapshot and WAL — exactly what a
// restarted process would see.

// durableConfig is quietConfig with snapshot and WAL paths under dir.
func durableConfig(dir string) Config {
	cfg := quietConfig()
	cfg.SnapshotPath = filepath.Join(dir, "index.tsix")
	cfg.WALPath = filepath.Join(dir, "wal.log")
	return cfg
}

// startDurable builds a server over a fresh dataset, runs recovery
// (which opens the WAL), and writes a baseline snapshot to disk.
func startDurable(t *testing.T, cfg Config, n int) (*Server, *httptest.Server) {
	t.Helper()
	ix := search.NewIndex(testDataset(n, 1), search.NewBiBranch())
	s := New(ix, cfg)
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// restartDurable models a process restart: load the snapshot from disk
// exactly as cmd/treesimd would, then run recovery.
func restartDurable(t *testing.T, cfg Config) (*Server, RecoveryResult) {
	t.Helper()
	f, err := os.Open(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ix, err := search.LoadIndex(f)
	if err != nil {
		t.Fatalf("reloading snapshot: %v", err)
	}
	s := New(ix, cfg)
	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

func insertTree(t *testing.T, base, text string) {
	t.Helper()
	if code := postJSON(t, base+"/v1/trees", InsertRequest{Tree: text}, nil); code != 200 {
		t.Fatalf("insert %q: status %d", text, code)
	}
}

// expectTree checks the tree at dataset position id.
func expectTree(t *testing.T, s *Server, id int, want string) {
	t.Helper()
	tr, ok := s.ix.TreeAt(id)
	if !ok {
		t.Fatalf("no tree at position %d", id)
	}
	if tr.String() != want {
		t.Fatalf("tree %d = %q, want %q", id, tr.String(), want)
	}
}

// TestInsertSurvivesCrashBeforeSnapshot: the process dies after
// acknowledging inserts but before any snapshot covers them; the WAL
// alone carries them across the restart.
func TestInsertSurvivesCrashBeforeSnapshot(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	s, hs := startDurable(t, cfg, 20)

	inserted := []string{"crash(a(b),c)", "crash2(x,y(z))"}
	for _, text := range inserted {
		insertTree(t, hs.URL, text)
	}
	// Crash: no Shutdown, no snapshot — drop everything in memory.
	hs.Close()
	s.wal.Close()

	s2, rec := restartDurable(t, cfg)
	if rec.Replayed != len(inserted) {
		t.Fatalf("recovery %s, want %d replayed", rec, len(inserted))
	}
	if !rec.Snapshotted {
		t.Fatalf("recovery %s: replayed records not re-persisted", rec)
	}
	if got := s2.ix.Size(); got != 20+len(inserted) {
		t.Fatalf("recovered index holds %d trees, want %d", got, 20+len(inserted))
	}
	for i, text := range inserted {
		expectTree(t, s2, 20+i, text)
	}

	// The recovered server reports the replay on /readyz and /metrics.
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	var ready ReadyResponse
	if code := getJSON(t, hs2.URL+"/readyz", &ready); code != 200 {
		t.Fatalf("readyz status %d", code)
	}
	if ready.Status != "ready" || ready.ReplayedRecords != uint64(len(inserted)) {
		t.Fatalf("readyz = %+v, want ready with %d replayed", ready, len(inserted))
	}
	if got := scrapeJSON(t, hs2.URL)["treesim_wal_replayed_records"]; got != float64(len(inserted)) {
		t.Fatalf("metrics wal_replayed_records = %v, want %d", got, len(inserted))
	}
	s2.wal.Close()

	// Recovery snapshotted and trimmed, so a third start replays nothing.
	s3, rec3 := restartDurable(t, cfg)
	if rec3.Replayed != 0 || rec3.Skipped != 0 {
		t.Fatalf("second recovery %s, want a clean log", rec3)
	}
	if got := s3.ix.Size(); got != 20+len(inserted) {
		t.Fatalf("third start holds %d trees, want %d", got, 20+len(inserted))
	}
	s3.wal.Close()
}

// TestCorruptWALTailRecoversPrefix: a bit flip in the last WAL record
// (a torn disk write) costs exactly that record; every earlier insert
// is recovered.
func TestCorruptWALTailRecoversPrefix(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	s, hs := startDurable(t, cfg, 20)

	inserted := []string{"w0(a,b)", "w1(c(d),e)", "w2(f,g(h))"}
	for _, text := range inserted {
		insertTree(t, hs.URL, text)
	}
	hs.Close()
	s.wal.Close()

	raw, err := os.ReadFile(wal.SegmentPath(cfg.WALPath, 1))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(wal.SegmentPath(cfg.WALPath, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := restartDurable(t, cfg)
	if !rec.TornTail {
		t.Fatalf("recovery %s: corrupt tail not detected", rec)
	}
	if rec.Replayed != 2 {
		t.Fatalf("recovery %s, want 2 replayed (valid prefix)", rec)
	}
	if got := s2.ix.Size(); got != 22 {
		t.Fatalf("recovered index holds %d trees, want 22", got)
	}
	expectTree(t, s2, 20, inserted[0])
	expectTree(t, s2, 21, inserted[1])
	s2.wal.Close()
}

// TestCrashDuringSnapshotKeepsWAL: a power cut at the snapshot's
// publish point (temp file written, rename lost) leaves the old
// snapshot intact and the WAL untrimmed, so the acknowledged insert
// still recovers.
func TestCrashDuringSnapshotKeepsWAL(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	s, hs := startDurable(t, cfg, 20)

	insertTree(t, hs.URL, "mid(snap,shot)")

	inj := &faultfs.Injector{CrashOnRename: true}
	s.fs = inj
	if err := s.Snapshot(); err == nil {
		t.Fatal("snapshot published through a crashed filesystem")
	}
	if !inj.Crashed() {
		t.Fatal("injector never reached its crash point")
	}
	hs.Close()
	s.wal.Close()

	s2, rec := restartDurable(t, cfg)
	if rec.Replayed != 1 {
		t.Fatalf("recovery %s, want the acknowledged insert replayed", rec)
	}
	if got := s2.ix.Size(); got != 21 {
		t.Fatalf("recovered index holds %d trees, want 21", got)
	}
	expectTree(t, s2, 20, "mid(snap,shot)")
	s2.wal.Close()
}

// TestLegacyWALReplaysCleanly: a log written before typed records existed
// — every payload a raw (u32 id | tree text) insert, no tombstones —
// must replay unchanged. The records are hand-built bytes, not
// wal.EncodeInsert output, so the test holds even if the encoder drifts.
func TestLegacyWALReplaysCleanly(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	s, hs := startDurable(t, cfg, 20)
	hs.Close()
	s.wal.Close()

	l, err := wal.Open(cfg.WALPath, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	legacy := func(id int, text string) []byte {
		p := make([]byte, 4+len(text))
		binary.LittleEndian.PutUint32(p[:4], uint32(id))
		copy(p[4:], text)
		return p
	}
	for i, text := range []string{"old0(a,b)", "old1(c(d),e)"} {
		if err := l.Append(legacy(20+i, text)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := restartDurable(t, cfg)
	if rec.Replayed != 2 || rec.TornTail {
		t.Fatalf("recovery %s, want 2 replayed from the legacy log", rec)
	}
	expectTree(t, s2, 20, "old0(a,b)")
	expectTree(t, s2, 21, "old1(c(d),e)")
	s2.wal.Close()
}

// TestDeleteSurvivesCrash: an acknowledged DELETE is a WAL tombstone; a
// crash before any snapshot covers it must not resurrect the tree. The
// log also mixes insert and tombstone records with a torn tail, proving
// the typed-record replay inherits the prefix-recovery semantics.
func TestDeleteSurvivesCrash(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	s, hs := startDurable(t, cfg, 20)

	insertTree(t, hs.URL, "mix0(a,b)")
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/trees/3", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	insertTree(t, hs.URL, "mix1(c,d)")
	hs.Close()
	s.wal.Close()

	// Tear the log's last record (the second insert): the delete and the
	// first insert are the recoverable prefix.
	raw, err := os.ReadFile(wal.SegmentPath(cfg.WALPath, 1))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(wal.SegmentPath(cfg.WALPath, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := restartDurable(t, cfg)
	if !rec.TornTail || rec.Replayed != 2 {
		t.Fatalf("recovery %s, want torn tail with 2 replayed", rec)
	}
	if _, ok := s2.ix.TreeAt(3); ok {
		t.Fatal("deleted tree resurrected by replay")
	}
	expectTree(t, s2, 20, "mix0(a,b)")
	if got, want := s2.ix.Size(), 21; got != want {
		t.Fatalf("recovered size %d, want %d", got, want)
	}
	if got, want := s2.ix.Live(), 20; got != want {
		t.Fatalf("recovered live count %d, want %d", got, want)
	}
	s2.wal.Close()
}

// TestWALAppendFailureRefusesInsert: when the WAL write fails, the
// insert is neither acknowledged nor applied — durability before
// acknowledgment also means no acknowledgment without durability. The
// failure also flips the server into degraded read-only mode, so
// follow-up writes are refused until the background prober verifies the
// disk has healed.
func TestWALAppendFailureRefusesInsert(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.DegradedProbeInterval = 5 * time.Millisecond
	// Write 1 is the WAL magic at Open; write 2 is the first append.
	inj := &faultfs.Injector{FailWriteN: 2}
	ix := search.NewIndex(testDataset(10, 1), search.NewBiBranch())
	s := New(ix, cfg)
	s.fs = inj
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	if code := postJSON(t, hs.URL+"/v1/trees", InsertRequest{Tree: "f(a,b)"}, nil); code != 503 {
		t.Fatalf("insert with failing WAL: status %d, want 503", code)
	}
	if got := s.ix.Size(); got != 10 {
		t.Fatalf("refused insert leaked into the index (size %d, want 10)", got)
	}
	var ready ReadyResponse
	getJSON(t, hs.URL+"/readyz", &ready)
	if ready.Status != "degraded" || ready.DegradedReason != "wal_append" {
		t.Fatalf("readyz after WAL failure: %+v, want degraded/wal_append", ready)
	}

	// The fault was one-shot: once the prober re-verifies the disk, a
	// retried insert succeeds and lands at the position the failed
	// attempt would have taken.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resp InsertResponse
		code := postJSON(t, hs.URL+"/v1/trees", InsertRequest{Tree: "f(a,b)"}, &resp)
		if code == 200 {
			break
		}
		if code != 503 {
			t.Fatalf("retried insert: status %d, want 200 or 503", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recovered from one-shot WAL failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.ix.Size(); got != 11 {
		t.Fatalf("retried insert missing (size %d, want 11)", got)
	}
	expectTree(t, s, 10, "f(a,b)")
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDropsDeletedTree: a tree deleted over HTTP is not in the
// next snapshot, and a restart that replays the log the delete went to
// skips its tombstone record: the snapshot already holds the delete.
func TestSnapshotDropsDeletedTree(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	s, hs := startDurable(t, cfg, 20)

	const label = "doomed8e4c"
	insertTree(t, hs.URL, label+"(a,b)")
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/trees/20", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	// The log as the delete left it: the snapshot below trims it.
	logPath := wal.SegmentPath(cfg.WALPath, 1)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(snap, []byte(label)) {
		t.Fatal("the snapshot holds the deleted tree's text")
	}
	hs.Close()
	s.wal.Close()

	// Put the trimmed segment back; the one the trim rotated to is empty.
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := restartDurable(t, cfg)
	if rec.Replayed != 0 || rec.Skipped != 2 {
		t.Fatalf("recovery %s, want the insert and the tombstone skipped", rec)
	}
	if _, ok := s2.ix.TreeAt(20); ok {
		t.Fatal("deleted tree resurrected by replay")
	}
	if got, live := s2.ix.Size(), s2.ix.Live(); got != 21 || live != 20 {
		t.Fatalf("recovered size/live %d/%d, want 21/20", got, live)
	}
	s2.wal.Close()
}
