// Package server puts the filter-and-refine similarity-search engine of
// internal/search behind a long-lived, concurrent HTTP/JSON service — the
// serve-path the paper's binary branch filter was designed for: a cheap
// lower bound gating the expensive edit-distance verification, now shared
// by many clients against one live index.
//
// Endpoints:
//
//	POST /v1/knn         k nearest neighbors of a query tree
//	POST /v1/range       all indexed trees within edit distance tau
//	POST /v1/dist        exact distance between two ad-hoc trees
//	POST /v1/batch       many knn/range queries in one request
//	POST   /v1/trees       insert a tree into the live index
//	GET    /v1/trees/{id}  fetch an indexed tree
//	DELETE /v1/trees/{id}  tombstone an indexed tree
//	GET    /healthz        liveness (always 200 while the process runs)
//	GET    /readyz         readiness (503 while draining)
//	GET    /metrics        counters, latency histograms, accessed-fraction
//
// The server owns the index, whose segmented store synchronizes itself:
// queries read lock-free epoch snapshots while inserts fill a memtable,
// deletes tombstone, and background compactions merge sealed segments.
// The server admits at most Config.MaxInFlight queries at once (429
// beyond that), bounds each query with a context deadline, logs every
// request with a request ID, persists periodic snapshots through the
// internal/search codec, and drains in-flight queries before writing a
// final snapshot on shutdown.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"treesim/internal/faultfs"
	"treesim/internal/obs"
	"treesim/internal/qlog"
	"treesim/internal/search"
	"treesim/internal/wal"
)

// Config tunes the server; the zero value gets sensible defaults.
type Config struct {
	// MaxInFlight caps concurrently executing query requests; excess
	// requests are rejected with 429. Default 64.
	MaxInFlight int
	// QueryTimeout bounds one query request's work; exceeding it returns
	// 504. Default 10s; negative disables.
	QueryTimeout time.Duration
	// MaxBodyBytes caps request body size. Default 8 MiB.
	MaxBodyBytes int64
	// MaxBatch caps the number of trees in one /v1/batch request.
	// Default 256.
	MaxBatch int
	// SnapshotPath, when set, is where the index is persisted (written
	// atomically: temp file, fsync, checksum verification, rename,
	// directory fsync). Empty disables persistence.
	SnapshotPath string
	// WALPath, when set, enables the write-ahead log: every accepted
	// insert is appended (and fsynced per WALSync) before the response
	// acknowledges it, and Recover replays the log at startup. Empty
	// means inserts between snapshots die with the process.
	WALPath string
	// WALSync picks the log's fsync policy: wal.SyncAlways (the zero
	// value — acknowledged inserts survive power loss) or wal.SyncNever
	// (survive a process crash only).
	WALSync wal.SyncPolicy
	// WALMaxBytes rotates the write-ahead log into a new segment file
	// once the active one reaches this size; whole covered segments are
	// deleted after snapshots instead of rewriting the log. 0 means the
	// 64 MiB default; negative disables rotation.
	WALMaxBytes int64
	// SnapshotKeep is how many snapshot generations to retain: the
	// current file plus SnapshotKeep-1 predecessors (<path>.1 is the
	// newest predecessor). Recovery falls back generation by generation
	// when the newest is corrupt, replaying the correspondingly longer
	// WAL suffix — the WAL is only trimmed below the oldest retained
	// generation's cut. 0 means 1 (no predecessors).
	SnapshotKeep int
	// DegradedProbeInterval is the base wait between durability probes
	// while the server is in degraded read-only mode (a failed WAL append
	// or snapshot write); each wait is jittered around it. 0 means 1s.
	DegradedProbeInterval time.Duration
	// FS is the filesystem the snapshot and WAL paths write through. Nil
	// means the real OS; fault-injection harnesses (chaos tests, disk
	// fault drills) pass a faultfs.Injector instead.
	FS faultfs.FS
	// SnapshotInterval is how often the snapshot loop checks for new
	// inserts to persist. Default 1m; negative disables the periodic
	// loop (the final shutdown snapshot still happens).
	SnapshotInterval time.Duration
	// OmitTrees leaves the matched trees' text encodings out of query
	// results; by default each result carries its tree.
	OmitTrees bool
	// QueryLog, when non-nil, records served knn/range queries (including
	// batch inner queries) to a sampled, size-rotated JSONL workload log
	// for offline replay by cmd/treesim-analyze. The server never fails a
	// query over a recording error. The caller owns the writer's lifetime
	// (close it after Shutdown).
	QueryLog *qlog.Writer
	// TraceRing sizes the flight recorder: a ring of completed request
	// traces retained by tail-based sampling (every errored request, every
	// request slower than an adaptive latency quantile, plus a reservoir
	// of normal baselines), browsable at GET /debug/traces. A request
	// retained as an error or slow trace logs its "request" line at Warn
	// with retained=<class>. 0 means 256; negative disables the recorder
	// entirely.
	TraceRing int
	// ProfileEvery is never read: the tail profiler it configured is
	// deleted. The field stays only because benchmark/oracle.go assigns it
	// and benchmark/ was closed to the PR that deleted the profiler;
	// ROADMAP item 1(d) deletes that assignment and this field together.
	ProfileEvery time.Duration
	// Logger receives structured request logs. Default: slog text
	// handler on stderr.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = time.Minute
	}
	if c.WALMaxBytes == 0 {
		c.WALMaxBytes = 64 << 20
	}
	if c.SnapshotKeep <= 0 {
		c.SnapshotKeep = 1
	}
	if c.DegradedProbeInterval <= 0 {
		c.DegradedProbeInterval = time.Second
	}
	if c.FS == nil {
		c.FS = faultfs.OS
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return c
}

// Server serves similarity queries over one live index.
type Server struct {
	cfg      Config
	ix       *search.Index
	log      *slog.Logger
	metrics  *Metrics
	sem      limiter
	mux      *http.ServeMux
	recorder *obs.Recorder // flight recorder; nil when Config.TraceRing < 0

	ready     atomic.Bool   // readyz: accepting traffic
	reqSeq    atomic.Uint64 // request-ID counter
	admitted  atomic.Uint64 // query requests that took an admission slot
	inserts   atomic.Uint64 // total inserts accepted
	deletes   atomic.Uint64 // total deletes accepted
	saved     atomic.Uint64 // value of inserts+deletes at the last snapshot
	snapshots atomic.Uint64 // snapshots written

	// Durability state (see durability.go). fs is Config.FS resolved:
	// the filesystem the snapshot and WAL paths write through.
	fs             faultfs.FS
	wal            *wal.Log
	walMu          sync.Mutex    // makes (assign position, WAL append, apply) atomic
	walRecords     atomic.Uint64 // records appended by this process
	walReplayed    atomic.Uint64 // records replayed at startup
	snapCRCFail    atomic.Uint64 // snapshots that failed checksum self-verification
	recovering     atomic.Bool   // Recover in progress (readyz: 503)
	replayProgress atomic.Uint64 // records applied so far during Recover

	// Degraded read-only mode (see degraded.go): a failed durable write
	// flips degraded on; writes get 503 not_durable while queries keep
	// serving; a jittered prober clears it when the disk heals.
	degraded       atomic.Bool
	degradedTotal  atomic.Uint64
	degradedMu     sync.Mutex
	degradedReason string // under degradedMu
	probing        bool   // under degradedMu: prober goroutine running
	closing        bool   // under degradedMu: Shutdown begun, no new probers

	// snapCuts are the WAL offsets captured at the last SnapshotKeep
	// published snapshots, oldest first (under snapMu). The WAL only trims
	// below snapCuts[0] once the ring is full, so every retained snapshot
	// generation stays recoverable: older generation + longer WAL suffix.
	snapCuts []int64

	httpSrv  *http.Server
	bg       sync.WaitGroup
	stopSnap chan struct{}
	snapOnce sync.Once
	snapMu   sync.Mutex // serializes snapshot writes
}

// New wraps a built index in a server. The index is served as-is; build or
// load it first (see cmd/treesimd).
func New(ix *search.Index, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		ix:       ix,
		log:      cfg.Logger,
		sem:      newLimiter(cfg.MaxInFlight),
		fs:       cfg.FS,
		stopSnap: make(chan struct{}),
	}
	if cfg.TraceRing >= 0 {
		s.recorder = obs.NewRecorder(obs.RecorderConfig{Capacity: cfg.TraceRing})
	}
	s.metrics = newMetrics(s)
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/knn", s.instrument("/v1/knn", true, s.handleKNN))
	s.mux.Handle("POST /v1/range", s.instrument("/v1/range", true, s.handleRange))
	s.mux.Handle("POST /v1/dist", s.instrument("/v1/dist", true, s.handleDist))
	s.mux.Handle("POST /v1/batch", s.instrument("/v1/batch", true, s.handleBatch))
	s.mux.Handle("POST /v1/trees", s.instrument("/v1/trees", true, s.handleInsert))
	s.mux.Handle("GET /v1/trees/{id}", s.instrument("/v1/trees/{id}", false, s.handleGetTree))
	s.mux.Handle("DELETE /v1/trees/{id}", s.instrument("/v1/trees/{id}", true, s.handleDelete))
	s.mux.Handle("GET /healthz", s.instrument("/healthz", false, s.handleHealthz))
	s.mux.Handle("GET /readyz", s.instrument("/readyz", false, s.handleReadyz))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", false, s.handleMetrics))
	s.mux.Handle("GET /version", s.instrument("/version", false, s.handleVersion))
	// Debug surfaces (see debug.go) answer loopback callers only: retained
	// traces carry per-request timings, request IDs and EXPLAIN records.
	s.mux.Handle("GET /debug/traces", s.instrument("/debug/traces", false, s.loopbackOnly(s.handleDebugTraces)))
	s.mux.Handle("GET /debug/traces/{id}", s.instrument("/debug/traces/{id}", false, s.loopbackOnly(s.handleDebugTrace)))
	// Compactions run on background goroutines inside the index; the hook
	// surfaces each one as a log line and a duration observation.
	ix.OnCompaction(func(cs search.CompactionStats) {
		s.metrics.Compaction.ObserveDuration(cs.Duration)
		s.log.Info("compaction",
			"segments_in", cs.Inputs, "trees_in", cs.InputTrees,
			"trees_out", cs.Output, "duration", cs.Duration)
	})
	s.ready.Store(true)
	return s
}

// Handler returns the server's full route tree (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It starts the periodic
// snapshot loop and blocks like http.Server.Serve (returning
// http.ErrServerClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.startSnapshotLoop()
	s.log.Info("serving", "addr", ln.Addr().String(), "trees", s.ix.Size(), "filter", s.ix.Filter().Name())
	return s.httpSrv.Serve(ln)
}

// Shutdown drains the server gracefully: readiness flips to 503 (load
// balancers stop sending traffic), in-flight requests run to completion
// (bounded by ctx), the snapshot loop stops, and a final snapshot persists
// any inserts the periodic loop hasn't seen.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	// No new prober goroutines may start once the background group is
	// being drained.
	s.degradedMu.Lock()
	s.closing = true
	s.degradedMu.Unlock()
	s.stopSnapshotLoop()
	if s.dirty() {
		if serr := s.Snapshot(); serr != nil && err == nil {
			err = serr
		}
	}
	if s.wal != nil {
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.log.Info("shut down", "final_snapshot", s.cfg.SnapshotPath != "", "err", err)
	return err
}

// dirty reports whether writes (inserts or deletes) happened since the
// last snapshot.
func (s *Server) dirty() bool { return s.inserts.Load()+s.deletes.Load() != s.saved.Load() }

// recordQuery offers one served query to the workload log. Recording is
// best-effort: a sampled-out query returns silently, and a write error is
// logged but never fails the response.
func (s *Server) recordQuery(op, treeText string, k, tau int, st search.Stats) {
	if s.cfg.QueryLog == nil {
		return
	}
	err := s.cfg.QueryLog.Record(qlog.Record{
		Op:     op,
		Tree:   treeText,
		K:      k,
		Tau:    tau,
		Filter: s.ix.Filter().Name(),
		Stats: qlog.RecordStats{
			Dataset:        st.Dataset,
			Candidates:     st.Candidates,
			Verified:       st.Verified,
			Results:        st.Results,
			FalsePositives: st.FalsePositives,
			FilterUS:       st.FilterTime.Microseconds(),
			RefineUS:       st.RefineTime.Microseconds(),
		},
	})
	if err != nil {
		s.log.Warn("query log record failed", "err", err)
	}
}

// Snapshot persists the index to Config.SnapshotPath atomically and
// durably: temp file in the same directory, fsync, checksum
// self-verification (a snapshot that would not load back is never
// published), rename, directory fsync. It is a no-op without a configured
// path, and safe to call while queries and inserts are running: the codec
// copies the index state under its read lock.
//
// After a successful snapshot the write-ahead log is trimmed: records
// below the offset captured here are covered by the snapshot (their
// inserts happened before the codec's consistent cut) and no longer
// needed for recovery.
func (s *Server) Snapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// Everything below walOff was applied to the index before this
	// point, so the cut below includes it; records appended later may or
	// may not be in the cut, which replay tolerates (positions make it
	// idempotent).
	var walOff int64
	if s.wal != nil {
		walOff = s.wal.Offset()
	}
	// Writes accepted after this read land in the next snapshot.
	mark := s.inserts.Load() + s.deletes.Load()
	// The span tree times each stage of the publication; on success it is
	// logged with the "snapshot written" record and its total duration
	// feeds the snapshot_write_seconds histogram.
	span := obs.New("snapshot")
	span.SetInt("trees", int64(s.ix.Size()))
	dir := filepath.Dir(s.cfg.SnapshotPath)
	tmp, err := s.fs.CreateTemp(dir, ".treesimd-snapshot-*")
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	defer s.fs.Remove(tmp.Name())
	wsp := span.StartChild("write")
	if err := search.SaveIndex(tmp, s.ix); err != nil {
		tmp.Close()
		return fmt.Errorf("server: snapshot: %w", err)
	}
	wsp.End()
	// Fsync before rename: without it, the rename can publish a file
	// whose bytes are still only in the page cache, and a power cut
	// leaves an empty or partial "atomic" snapshot.
	ssp := span.StartChild("sync")
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: snapshot sync: %w", err)
	}
	ssp.End()
	// Read back and verify the checksum before publishing: a write that
	// went wrong (bad disk, torn page) must not replace a good snapshot.
	vsp := span.StartChild("verify")
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		tmp.Close()
		return fmt.Errorf("server: snapshot verify: %w", err)
	}
	if err := search.VerifySnapshot(tmp); err != nil {
		tmp.Close()
		s.snapCRCFail.Add(1)
		return fmt.Errorf("server: snapshot failed self-verification, not published: %w", err)
	}
	vsp.End()
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	rsp := span.StartChild("rename")
	// Shift the generation chain before publishing: the current snapshot
	// becomes <path>.1, .1 becomes .2, and so on up to SnapshotKeep-1
	// predecessors. Each shift is one atomic rename, so a crash anywhere
	// in the chain leaves every file a complete, loadable snapshot.
	for i := s.cfg.SnapshotKeep - 1; i >= 1; i-- {
		src := SnapshotGeneration(s.cfg.SnapshotPath, i-1)
		if err := s.fs.Rename(src, SnapshotGeneration(s.cfg.SnapshotPath, i)); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // generation not written yet
			}
			return fmt.Errorf("server: snapshot generation shift: %w", err)
		}
	}
	if err := s.fs.Rename(tmp.Name(), s.cfg.SnapshotPath); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	// Fsync the directory so the renames themselves survive power loss.
	if err := s.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("server: snapshot dir sync: %w", err)
	}
	rsp.End()
	span.End()
	s.metrics.SnapshotWrite.ObserveDuration(span.Duration())
	s.saved.Store(mark)
	s.snapshots.Add(1)
	s.log.Info("snapshot written", "path", s.cfg.SnapshotPath, "trees", s.ix.Size(),
		"generations", s.cfg.SnapshotKeep, "trace", span.Snapshot())
	s.trimWAL(walOff)
	return nil
}

// SnapshotGeneration names generation gen of a snapshot path: gen 0 is
// the path itself, gen i its i-th predecessor ("<path>.i").
func SnapshotGeneration(path string, gen int) string {
	if gen == 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, gen)
}

// trimWAL records the just-published snapshot's WAL cut and trims the
// log below the oldest cut still needed. With SnapshotKeep generations
// retained, the trim floor is the cut of the oldest one — and until this
// process has published a full ring of snapshots the log is not trimmed
// at all, because older on-disk generations (from a previous process)
// have cuts we no longer know. Called with snapMu held.
func (s *Server) trimWAL(walOff int64) {
	if s.wal == nil || walOff <= 0 {
		return
	}
	s.snapCuts = append(s.snapCuts, walOff)
	if len(s.snapCuts) < s.cfg.SnapshotKeep {
		return
	}
	for len(s.snapCuts) > s.cfg.SnapshotKeep {
		s.snapCuts = s.snapCuts[1:]
	}
	if err := s.wal.TrimPrefix(s.snapCuts[0]); err != nil {
		// Not fatal: the untrimmed records replay idempotently; the
		// next snapshot retries the trim.
		s.log.Error("wal trim after snapshot failed", "err", err)
	}
}

func (s *Server) startSnapshotLoop() {
	if s.cfg.SnapshotPath == "" || s.cfg.SnapshotInterval < 0 {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		t := time.NewTicker(s.cfg.SnapshotInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stopSnap:
				return
			case <-t.C:
				if s.degraded.Load() {
					continue // the heal prober owns retries while degraded
				}
				if s.dirty() {
					if err := s.Snapshot(); err != nil {
						s.log.Error("periodic snapshot failed", "err", err)
						s.enterDegraded("snapshot", err)
					}
				}
			}
		}
	}()
}

func (s *Server) stopSnapshotLoop() {
	s.snapOnce.Do(func() { close(s.stopSnap) })
	s.bg.Wait()
}
