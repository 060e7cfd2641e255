package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"treesim/internal/faultfs"
	"treesim/internal/search"
)

// The chaos matrix: every durability operation crossed with every fault
// class. Each cell runs a small workload that drives the target
// operation while the fault is armed, records exactly which writes the
// server acknowledged, then "restarts" — abandons the process state and
// rebuilds a server from nothing but the on-disk files — and asserts the
// two invariants every cell of the grid must uphold:
//
//  1. Zero acked-write loss: every insert and delete the server
//     answered 200 is present (or still deleted) after recovery.
//     Refused writes may or may not have left bytes behind; either way
//     they must not displace an acknowledged one.
//  2. Parity: the recovered live index, a snapshot written from it, and
//     a second recovery from that snapshot + WAL all describe the same
//     tree-for-tree state.
//
// Run the full grid under the race detector with `make chaos`.

// chaosFault is one armed fault: kind ∈ {crash, short_write,
// fsync_error}; offset counts write calls after arming for the
// write-counted kinds, so the same operation is hit at several distinct
// syscall boundaries.
type chaosFault struct {
	kind   string
	offset int
}

func (f chaosFault) name() string {
	if f.offset > 0 {
		return fmt.Sprintf("%s@%d", f.kind, f.offset)
	}
	return f.kind
}

// arm installs the fault relative to the injector's current write count.
// A short write is paired with an immediate crash: the torn bytes stay
// on disk exactly as a power cut would leave them, instead of being
// rolled back by the still-running process.
func (f chaosFault) arm(inj *faultfs.Injector) {
	switch f.kind {
	case "crash":
		inj.SetCrashAfterWriteN(inj.Writes() + f.offset)
	case "short_write":
		inj.SetShortWriteN(inj.Writes() + f.offset)
		inj.SetCrashAfterWriteN(inj.Writes() + f.offset)
	case "fsync_error":
		inj.SetFailSync(true)
	default:
		panic("unknown fault " + f.kind)
	}
}

// chaosIndexOpts makes seal and compaction frequent enough that a
// handful of inserts drives them: the memtable seals every 4 trees and
// two sealed segments trigger a compaction.
func chaosIndexOpts() []search.IndexOption {
	return []search.IndexOption{search.WithMemtableSize(4), search.WithCompactionThreshold(2)}
}

// chaosCell is the running state of one grid cell.
type chaosCell struct {
	cfg     Config
	inj     *faultfs.Injector
	s       *Server
	hs      *httptest.Server
	n       int             // inserts attempted, for unique tree texts
	acked   map[string]bool // tree text → acknowledged, must survive
	deleted map[int]bool    // id → acknowledged delete, must stay deleted
}

func startChaosCell(t *testing.T) *chaosCell {
	t.Helper()
	cfg := durableConfig(t.TempDir())
	cfg.SnapshotKeep = 2
	cfg.WALMaxBytes = 160 // a few records per segment: rotation is routine
	cfg.DegradedProbeInterval = time.Minute
	c := &chaosCell{
		cfg: cfg, inj: &faultfs.Injector{},
		acked: map[string]bool{}, deleted: map[int]bool{},
	}
	opts := append([]search.IndexOption{search.NewBiBranch()}, chaosIndexOpts()...)
	ix := search.NewIndex(testDataset(8, 7), opts...)
	c.s = New(ix, cfg)
	c.s.fs = c.inj
	if _, err := c.s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := c.s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.hs = httptest.NewServer(c.s.Handler())
	t.Cleanup(c.hs.Close)
	return c
}

// tryInsert drives one insert; a 200 is recorded as acknowledged, a 503
// (fault or degraded mode) as refused. Anything else fails the cell.
func (c *chaosCell) tryInsert(t *testing.T) {
	t.Helper()
	c.n++
	text := fmt.Sprintf("chaos%d(a(b%d),c)", c.n, c.n)
	code := postJSON(t, c.hs.URL+"/v1/trees", InsertRequest{Tree: text}, nil)
	switch code {
	case 200:
		c.acked[text] = true
	case 503:
	default:
		t.Fatalf("insert %q: status %d, want 200 or 503", text, code)
	}
}

func (c *chaosCell) tryDelete(t *testing.T, id int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/trees/%d", c.hs.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case 200:
		c.deleted[id] = true
	case 503:
	default:
		t.Fatalf("delete %d: status %d, want 200 or 503", id, resp.StatusCode)
	}
}

// driveOp runs the cell's target operation with the fault armed. Ops
// that are side effects of inserts (seal, compact, rotate) are driven by
// enough inserts to cross their thresholds; snapshot and trim are driven
// directly (trim fires inside the second snapshot once the keep=2
// retention ring is full).
func (c *chaosCell) driveOp(t *testing.T, op string) {
	t.Helper()
	switch op {
	case "insert":
		c.tryInsert(t)
		c.tryInsert(t)
	case "delete":
		c.tryDelete(t, 0)
		c.tryDelete(t, 1)
		c.tryInsert(t)
	case "seal":
		for i := 0; i < 6; i++ { // memtable seals every 4 trees
			c.tryInsert(t)
		}
	case "compact":
		for i := 0; i < 12; i++ { // 3 seals → compaction threshold 2
			c.tryInsert(t)
		}
	case "snapshot":
		c.tryInsert(t)
		_ = c.s.Snapshot() // fault may refuse it; the invariants hold either way
		c.tryInsert(t)
	case "rotate":
		for i := 0; i < 8; i++ { // ~40-byte records, 160-byte segments
			c.tryInsert(t)
		}
	case "trim":
		c.tryInsert(t)
		_ = c.s.Snapshot() // ring full (baseline + this) → TrimPrefix runs
		c.tryInsert(t)
		_ = c.s.Snapshot()
	default:
		t.Fatalf("unknown op %s", op)
	}
}

// abandon kills the cell's process state without any graceful teardown —
// no final snapshot, no WAL close — leaving the disk exactly as the
// fault did. The degraded prober (if one started) is stopped so cells
// don't leak goroutines.
func (c *chaosCell) abandon() {
	c.hs.Close()
	c.s.degradedMu.Lock()
	c.s.closing = true
	c.s.degradedMu.Unlock()
	c.s.stopSnapshotLoop()
	c.s.bg.Wait()
}

// chaosRestart is what a fresh process does: fall back to the newest
// loadable snapshot generation, replay the WAL, serve.
func chaosRestart(t *testing.T, cfg Config) *Server {
	t.Helper()
	ix, _, err := LoadSnapshotFallback(nil, cfg.SnapshotPath, cfg.SnapshotKeep, chaosIndexOpts()...)
	if err != nil {
		t.Fatalf("snapshot fallback after fault: %v", err)
	}
	s := New(ix, cfg)
	if _, err := s.Recover(); err != nil {
		t.Fatalf("recovery after fault: %v", err)
	}
	return s
}

// chaosState captures an index tree-for-tree: text at every live id,
// absence at every deleted one.
func chaosState(s *Server) map[int]string {
	state := make(map[int]string)
	for id := 0; id < s.ix.Size(); id++ {
		if tr, ok := s.ix.TreeAt(id); ok {
			state[id] = tr.String()
		}
	}
	return state
}

func runChaosCell(t *testing.T, op string, fault chaosFault) {
	c := startChaosCell(t)

	// Healthy traffic first, so recovery has real state to preserve.
	for i := 0; i < 2; i++ {
		c.tryInsert(t)
		if !c.acked[fmt.Sprintf("chaos%d(a(b%d),c)", c.n, c.n)] {
			t.Fatalf("healthy insert %d refused before any fault", c.n)
		}
	}
	c.tryDelete(t, 2)
	if !c.deleted[2] {
		t.Fatal("healthy delete refused before any fault")
	}

	fault.arm(c.inj)
	c.driveOp(t, op)
	c.tryInsert(t) // post-fault traffic: degraded fast-path or recovery
	c.abandon()

	// Invariant 1: zero acked-write loss across the restart.
	s2 := chaosRestart(t, c.cfg)
	visible := make(map[string]bool, s2.ix.Size())
	for _, text := range chaosState(s2) {
		visible[text] = true
	}
	for text := range c.acked {
		if !visible[text] {
			t.Errorf("acked insert %q lost after %s/%s recovery", text, op, fault.name())
		}
	}
	for id := range c.deleted {
		if _, ok := s2.ix.TreeAt(id); ok {
			t.Errorf("acked delete of %d resurrected after %s/%s recovery", id, op, fault.name())
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Invariant 2: snapshot / WAL / live-index parity. A snapshot written
	// from the recovered state plus the trimmed WAL must reproduce it
	// exactly in a second recovery.
	if err := s2.Snapshot(); err != nil {
		t.Fatalf("snapshot on healed disk: %v", err)
	}
	want := chaosState(s2)
	s2.wal.Close()
	s3 := chaosRestart(t, c.cfg)
	defer s3.wal.Close()
	if got := chaosState(s3); len(got) != len(want) {
		t.Fatalf("second recovery has %d live trees, want %d", len(got), len(want))
	} else {
		for id, text := range want {
			if got[id] != text {
				t.Fatalf("second recovery: tree %d = %q, want %q", id, got[id], text)
			}
		}
	}
}

// TestChaosMatrix: the full operation × fault grid. Each write-counted
// fault is fired at several offsets so crashes land on distinct syscall
// boundaries (mid-rotation, mid-publication, between records).
func TestChaosMatrix(t *testing.T) {
	ops := []string{"insert", "delete", "seal", "compact", "snapshot", "rotate", "trim"}
	faults := []chaosFault{
		{kind: "crash", offset: 1},
		{kind: "crash", offset: 2},
		{kind: "crash", offset: 4},
		{kind: "short_write", offset: 1},
		{kind: "short_write", offset: 2},
		{kind: "short_write", offset: 4},
		{kind: "fsync_error"},
	}
	for _, op := range ops {
		for _, fault := range faults {
			t.Run(op+"/"+fault.name(), func(t *testing.T) {
				runChaosCell(t, op, fault)
			})
		}
	}
}
