package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"treesim/internal/branch"
	"treesim/internal/editdist"
	"treesim/internal/obs"
	"treesim/internal/search"
	"treesim/internal/tree"
)

// wantTrace reports whether the request asked for an inline span tree.
func wantTrace(r *http.Request) bool { return r.URL.Query().Get("trace") == "1" }

// wantExplain reports whether the request asked for the per-query
// filter-quality analysis (?explain=1).
func wantExplain(r *http.Request) bool { return r.URL.Query().Get("explain") == "1" }

// traceSnapshot renders the request's span tree for an inline response.
// The root span is still running (the middleware ends it after the body is
// written), so it reports elapsed-so-far, which always covers the ended
// stage children.
func traceSnapshot(r *http.Request) *obs.SpanSnapshot {
	sp := obs.FromContext(r.Context())
	if sp == nil {
		return nil
	}
	snap := sp.Snapshot()
	return &snap
}

// statusClientClosed is nginx's convention for "client canceled the
// request"; no standard code exists.
const statusClientClosed = 499

// ctxStatus maps a context error from a query to a response status, error
// code, and message.
func ctxStatus(err error) (int, string, string) {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, ErrCodeDeadlineExceeded, "query deadline exceeded"
	}
	return statusClientClosed, ErrCodeCanceled, "client canceled request"
}

// parseTree parses a request tree, rejecting empties.
func parseTree(field, s string) (*tree.Tree, error) {
	if s == "" {
		return nil, fmt.Errorf("missing %q", field)
	}
	t, err := tree.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("bad %q: %v", field, err)
	}
	if t.IsEmpty() {
		return nil, fmt.Errorf("bad %q: empty tree", field)
	}
	return t, nil
}

// queryResponse converts results + stats to the wire form, attaching tree
// text unless configured away.
func (s *Server) queryResponse(res []search.Result, stats search.Stats) QueryResponse {
	out := QueryResponse{Results: make([]ResultJSON, len(res)), Stats: statsJSON(stats)}
	for i, r := range res {
		out.Results[i] = ResultJSON{ID: r.ID, Dist: r.Dist}
		if !s.cfg.OmitTrees {
			if t, ok := s.ix.TreeAt(r.ID); ok {
				out.Results[i].Tree = t.String()
			}
		}
	}
	return out
}

// runQuery answers one query of a /v1/knn, /v1/range or /v1/batch request:
// op is "knn" (k applies) or "range" (tau applies). The EXPLAIN analysis
// is computed only when a consumer will read it; without one the query
// takes no option and nothing is allocated for it.
func (s *Server) runQuery(ctx context.Context, op string, q *tree.Tree, k, tau int, explain bool) ([]search.Result, search.Stats, *search.Explain, error) {
	var (
		ex   **search.Explain
		opts []search.QueryOption
	)
	if explain {
		ex = new(*search.Explain)
		opts = []search.QueryOption{search.WithExplain(ex)}
	}
	var (
		res   []search.Result
		stats search.Stats
		err   error
	)
	if op == "knn" {
		res, stats, err = s.ix.KNN(ctx, q, k, opts...)
	} else {
		res, stats, err = s.ix.Range(ctx, q, tau, opts...)
	}
	if ex == nil {
		return res, stats, nil, err
	}
	return res, stats, *ex, err
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req KNNRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err.Error(), requestID(w))
		return
	}
	if req.K <= 0 {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument, "k must be positive", requestID(w))
		return
	}
	s.serveQuery(w, r, "knn", req.Tree, req.K, 0)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req RangeRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err.Error(), requestID(w))
		return
	}
	if req.Tau < 0 {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument, "tau must be non-negative", requestID(w))
		return
	}
	s.serveQuery(w, r, "range", req.Tree, 0, req.Tau)
}

// serveQuery is what /v1/knn and /v1/range do with a validated request:
// parse the tree, run the query, feed the metrics, the query log and the
// EXPLAIN consumers, and write the response.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, op, treeText string, k, tau int) {
	q, err := parseTree("tree", treeText)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidTree, err.Error(), requestID(w))
		return
	}
	// EXPLAIN analysis runs only for ?explain=1, at most once per request;
	// setExplain hands the one record to both consumers — the response
	// below and the flight recorder's retained trace.
	res, stats, ex, err := s.runQuery(r.Context(), op, q, k, tau, wantExplain(r))
	if err != nil {
		status, code, msg := ctxStatus(err)
		writeError(w, status, code, msg, requestID(w))
		return
	}
	s.metrics.ObserveQuery(stats)
	s.recordQuery(op, treeText, k, tau, stats)
	setExplain(r.Context(), ex)
	resp := s.queryResponse(res, stats)
	if wantTrace(r) {
		resp.Trace = traceSnapshot(r)
	}
	if wantExplain(r) {
		resp.Explain = ex
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxDistCells caps (|t1|+1)·(|t2|+1) for POST /v1/dist. The distance
// takes no context, so QueryTimeout cannot stop it, and its two DP tables
// hold that many ints each: 2²² cells is 64 MiB of tables, where the body
// limit alone would let two 10⁵-node chains (600 KB of text) ask for
// about 150 GiB.
const maxDistCells = 1 << 22

func (s *Server) handleDist(w http.ResponseWriter, r *http.Request) {
	var req DistRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err.Error(), requestID(w))
		return
	}
	t1, err := parseTree("t1", req.T1)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidTree, err.Error(), requestID(w))
		return
	}
	t2, err := parseTree("t2", req.T2)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidTree, err.Error(), requestID(w))
		return
	}
	if n1, n2 := t1.Size(), t2.Size(); (n1+1)*(n2+1) > maxDistCells {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument,
			fmt.Sprintf("trees of %d and %d nodes need (|t1|+1)·(|t2|+1) = %d cells, over the limit of %d", n1, n2, (n1+1)*(n2+1), maxDistCells), requestID(w))
		return
	}
	space := branch.NewSpace(branch.MinQ)
	lb := branch.SearchLBound(space.Profile(t1), space.Profile(t2))
	writeJSON(w, http.StatusOK, DistResponse{
		EditDistance: editdist.Distance(t1, t2),
		LowerBound:   lb,
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err.Error(), requestID(w))
		return
	}
	if req.Op != "knn" && req.Op != "range" {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument, `op must be "knn" or "range"`, requestID(w))
		return
	}
	if len(req.Trees) == 0 {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument, "trees must be non-empty", requestID(w))
		return
	}
	if len(req.Trees) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Trees), s.cfg.MaxBatch), requestID(w))
		return
	}
	if req.Op == "knn" && req.K <= 0 {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument, "k must be positive", requestID(w))
		return
	}
	if req.Op == "range" && req.Tau < 0 {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument, "tau must be non-negative", requestID(w))
		return
	}
	qs := make([]*tree.Tree, len(req.Trees))
	for i, ts := range req.Trees {
		q, err := parseTree(fmt.Sprintf("trees[%d]", i), ts)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidTree, err.Error(), requestID(w))
			return
		}
		qs[i] = q
	}

	// One admission slot covers the whole batch; inside it the queries
	// fan out over the cores, each honoring the request deadline. Each
	// query hangs its own query[i] child off the request span, so a trace
	// shows the fan-out and each query's filter/refine breakdown.
	ctx := r.Context()
	rootSpan := obs.FromContext(ctx)
	out := make([]QueryResponse, len(qs))
	allStats := make([]search.Stats, len(qs))
	var qerr atomic.Value // first context error
	var next atomic.Int64
	next.Store(-1)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(qs) {
		workers = len(qs)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(qs) {
					return
				}
				if err := ctx.Err(); err != nil {
					qerr.CompareAndSwap(nil, err)
					return
				}
				qsp := rootSpan.StartChild(fmt.Sprintf("query[%d]", i))
				qctx := ctx
				if qsp != nil {
					qctx = obs.NewContext(ctx, qsp)
				}
				res, stats, _, err := s.runQuery(qctx, req.Op, qs[i], req.K, req.Tau, false)
				qsp.End()
				if err != nil {
					qerr.CompareAndSwap(nil, err)
					return
				}
				out[i] = s.queryResponse(res, stats)
				allStats[i] = stats
			}
		}()
	}
	wg.Wait()
	if err, _ := qerr.Load().(error); err != nil {
		status, code, msg := ctxStatus(err)
		writeError(w, status, code, msg, requestID(w))
		return
	}
	for i, st := range allStats {
		s.metrics.ObserveQuery(st)
		s.recordQuery(req.Op, req.Trees[i], req.K, req.Tau, st)
	}
	resp := BatchResponse{Queries: out}
	if wantTrace(r) {
		resp.Trace = traceSnapshot(r)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err.Error(), requestID(w))
		return
	}
	t, err := parseTree("tree", req.Tree)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidTree, err.Error(), requestID(w))
		return
	}
	// A degraded server fast-fails writes without touching the WAL: the
	// disk is known-bad until a heal probe says otherwise, and retrying
	// on every client request would hammer it.
	if s.degraded.Load() {
		writeDegraded(w, "insert", requestID(w))
		return
	}
	// Durability before acknowledgment: the record must be in the WAL
	// before the insert is applied or acked, and walMu makes (assign
	// position, append, apply) atomic so log order matches position
	// order — what makes replay deterministic. Every filter configuration
	// accepts inserts (the segmented store lands them in a memtable
	// segment), so there is no rejection path between append and apply.
	s.walMu.Lock()
	id := s.ix.Size()
	wsp := obs.FromContext(r.Context()).StartChild("wal.append")
	err = s.appendToWAL(id, t)
	wsp.End()
	if err != nil {
		s.walMu.Unlock()
		s.log.Error("wal append failed, insert refused", "err", err)
		s.enterDegraded("wal_append", err)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, ErrCodeNotDurable,
			"insert not durable (write-ahead log append failed); retry", requestID(w))
		return
	}
	id, _ = s.ix.Insert(t)
	s.walMu.Unlock()
	s.inserts.Add(1)
	writeJSON(w, http.StatusOK, InsertResponse{ID: id, Size: s.ix.Size()})
}

// writeDegraded is the uniform write-path rejection while the server is
// in degraded read-only mode.
func writeDegraded(w http.ResponseWriter, op, reqID string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, ErrCodeNotDurable,
		op+" refused: server is in degraded read-only mode (durable storage failing); retry", reqID)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument, "tree id must be an integer", requestID(w))
		return
	}
	if s.degraded.Load() {
		writeDegraded(w, "delete", requestID(w))
		return
	}
	// Same discipline as inserts: tombstone in the WAL before the delete
	// is applied or acknowledged, with walMu ordering the log like the
	// applies. The existence check runs under walMu too, so a concurrent
	// duplicate delete cannot slip between check and apply.
	s.walMu.Lock()
	if _, ok := s.ix.TreeAt(id); !ok {
		s.walMu.Unlock()
		writeError(w, http.StatusNotFound, ErrCodeNotFound,
			fmt.Sprintf("no tree %d (deleted or never assigned)", id), requestID(w))
		return
	}
	wsp := obs.FromContext(r.Context()).StartChild("wal.append")
	err = s.appendTombstoneToWAL(id)
	wsp.End()
	if err != nil {
		s.walMu.Unlock()
		s.log.Error("wal append failed, delete refused", "err", err)
		s.enterDegraded("wal_append", err)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, ErrCodeNotDurable,
			"delete not durable (write-ahead log append failed); retry", requestID(w))
		return
	}
	s.ix.Delete(id)
	s.walMu.Unlock()
	s.deletes.Add(1)
	writeJSON(w, http.StatusOK, DeleteResponse{ID: id, Live: s.ix.Live()})
}

func (s *Server) handleGetTree(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument, "tree id must be an integer", requestID(w))
		return
	}
	t, ok := s.ix.TreeAt(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, fmt.Sprintf("no tree %d (index holds %d)", id, s.ix.Size()), requestID(w))
		return
	}
	writeJSON(w, http.StatusOK, TreeResponse{ID: id, Tree: t.String(), Size: t.Size()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.recovering.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{
			Status:          "recovering",
			ReplayedRecords: s.replayProgress.Load(),
		})
		return
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: "draining"})
		return
	}
	// Degraded still answers 200: the node serves queries and must keep
	// receiving read traffic; the status string tells routers to shed
	// writes only.
	if deg, reason := s.degradedState(); deg {
		writeJSON(w, http.StatusOK, ReadyResponse{
			Status:          "degraded",
			DegradedReason:  reason,
			ReplayedRecords: s.walReplayed.Load(),
			WALRecords:      s.walRecords.Load(),
		})
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{
		Status:          "ready",
		ReplayedRecords: s.walReplayed.Load(),
		WALRecords:      s.walRecords.Load(),
	})
}

// wantsProm decides the /metrics representation. JSON is the default;
// ?format=prom forces Prometheus text, as does an Accept header asking for
// text/plain without application/json (what a Prometheus scraper sends).
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.reg.WriteProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.metrics.reg.WriteJSON(w)
}
