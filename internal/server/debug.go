package server

import (
	"net"
	"net/http"
	"strconv"
	"time"

	"treesim/internal/obs"
)

// Debug endpoints for the tail-latency flight recorder. They expose raw
// span trees and per-request analysis, so they are loopback-only: an
// operator shells into the box (or port-forwards) to use them, the same
// trust model as Go's net/http/pprof convention.

// DebugTracesResponse is the GET /debug/traces body: the recorder's
// retention stats followed by the matching traces, newest first.
type DebugTracesResponse struct {
	Stats  obs.RecorderStats    `json:"stats"`
	Traces []*obs.RetainedTrace `json:"traces"`
}

// loopbackOnly gates a handler to connections from the local host. An
// empty RemoteAddr (direct handler invocation, as in unit tests) is
// allowed; anything unparseable or non-loopback gets 403.
func (s *Server) loopbackOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.RemoteAddr != "" {
			host, _, err := net.SplitHostPort(r.RemoteAddr)
			if err != nil {
				host = r.RemoteAddr
			}
			ip := net.ParseIP(host)
			if ip == nil || !ip.IsLoopback() {
				writeError(w, http.StatusForbidden, ErrCodeForbidden,
					"debug endpoints are loopback-only", requestID(w))
				return
			}
		}
		h(w, r)
	}
}

// handleDebugTraces lists retained traces. Query parameters: endpoint
// (exact match), min_us (minimum duration in microseconds), error=1
// (errored requests only), limit (cap the result count).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound,
			"flight recorder disabled (-trace-ring < 0)", requestID(w))
		return
	}
	q := r.URL.Query()
	f := obs.TraceFilter{
		Endpoint:  q.Get("endpoint"),
		ErrorOnly: q.Get("error") == "1",
	}
	if v := q.Get("min_us"); v != "" {
		us, err := strconv.ParseInt(v, 10, 64)
		if err != nil || us < 0 {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument,
				"min_us must be a non-negative integer", requestID(w))
			return
		}
		f.MinDur = time.Duration(us) * time.Microsecond
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument,
				"limit must be a non-negative integer", requestID(w))
			return
		}
		f.Limit = n
	}
	resp := DebugTracesResponse{Stats: s.recorder.Stats(), Traces: s.recorder.List(f)}
	if resp.Traces == nil {
		resp.Traces = []*obs.RetainedTrace{} // render as [], not null
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDebugTrace fetches one retained trace by request ID or hex
// trace ID.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound,
			"flight recorder disabled (-trace-ring < 0)", requestID(w))
		return
	}
	id := r.PathValue("id")
	tr := s.recorder.Get(id)
	if tr == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound,
			"no retained trace for request or trace id "+strconv.Quote(id)+" (evicted or never retained)", requestID(w))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}
