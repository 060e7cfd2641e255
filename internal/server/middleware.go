package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"treesim/internal/obs"
	"treesim/internal/search"
)

// explainHolder carries a ?explain=1 query's EXPLAIN record from the
// handler back to the middleware, which hands it to the flight recorder's
// retained trace. The handler and the defer run on the same goroutine, so
// a plain field suffices; the analysis is computed at most once per
// request and shared by the response and the recorder.
type explainHolder struct{ ex *search.Explain }

type explainKey struct{}

// setExplain hands the handler's EXPLAIN record (possibly nil) to the
// middleware. A no-op when the middleware did not install a holder (an
// endpoint outside admission control).
func setExplain(ctx context.Context, ex *search.Explain) {
	if h, ok := ctx.Value(explainKey{}).(*explainHolder); ok {
		h.ex = ex
	}
}

// statusWriter records the status code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's deadlines.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// maxRequestIDLen bounds a caller's X-Request-Id. The ID is echoed on the
// response and kept in every retained trace, so an unbounded one would let
// a client pin up to the header limit per ring slot.
const maxRequestIDLen = 128

// validRequestID reports whether a caller's X-Request-Id is adopted: 1 to
// maxRequestIDLen bytes of printable ASCII, no spaces.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}

// instrument wraps a handler with the server's middleware stack: request
// ID assignment, panic recovery, structured logging, metrics, body-size
// capping and — for query endpoints (limited=true) — semaphore admission
// with 429 backpressure and the per-request deadline.
func (s *Server) instrument(endpoint string, limited bool, h http.HandlerFunc) http.Handler {
	stats := s.metrics.endpoint(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-Id")
		if !validRequestID(rid) {
			rid = fmt.Sprintf("r%08x", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", rid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		// Every request gets a root span keyed by its request ID; handlers
		// and the search engine hang stage children off it through the
		// context. Snapshotting is deferred until someone asks (?trace=1 or
		// the flight recorder retaining it), so an unobserved trace costs
		// only the root allocation.
		//
		// An inbound W3C traceparent continues the caller's trace — same
		// trace ID, root parented under the caller's span; a malformed one
		// falls back to a fresh trace per the spec's restart rule. The
		// trace ID echoes back on X-Trace-Id, the caller's handle into
		// /debug/traces. Its tracestate rides along only within W3C's
		// limits (512 characters, 32 members): the root span, and any trace
		// the flight recorder retains, must not hold a header of any size.
		tc, tperr := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if state := r.Header.Get("tracestate"); tperr == nil && obs.TraceStateWithinLimits(state) {
			tc.State = state
		}
		span := obs.NewRemote(endpoint, tc)
		traceID := span.TraceID().String()
		w.Header().Set("X-Trace-Id", traceID)
		span.SetStr("request_id", rid)
		if n, ok := obs.ParseRetryState(tc.State); ok {
			// The client's retry counter, carried in tracestate so every
			// attempt of one logical request lands in the same trace.
			span.SetInt("retry", int64(n))
		}
		r = r.WithContext(obs.NewContext(r.Context(), span))

		// The flight recorder keeps a ?explain=1 query's EXPLAIN record
		// alongside the span tree; the holder lets the handler pass the one
		// computed record upward without the middleware knowing which
		// endpoint ran.
		var holder *explainHolder
		if limited {
			holder = &explainHolder{}
			r = r.WithContext(context.WithValue(r.Context(), explainKey{}, holder))
		}

		defer func() {
			if p := recover(); p != nil {
				s.log.Error("handler panic", "request_id", rid, "endpoint", endpoint, "panic", p)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, ErrCodeInternal, "internal error", rid)
				}
				sw.status = http.StatusInternalServerError
			}
			// Tag the span before it freezes: a request that ran (or ended)
			// inside a degraded read-only window is marked so its retained
			// trace says so.
			degraded := s.degraded.Load()
			if degraded {
				span.SetBool("degraded", true)
			}
			span.SetInt("http.status_code", int64(sw.status))
			span.End()
			elapsed := time.Since(start)
			stats.Observe(sw.status, elapsed)
			level := slog.LevelInfo
			args := []any{
				"request_id", rid,
				"trace_id", traceID,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"dur_us", elapsed.Microseconds(),
				"remote", r.RemoteAddr,
			}
			if strings.HasPrefix(endpoint, "/v1/") {
				var ex any
				if holder != nil && holder.ex != nil {
					ex = holder.ex
				}
				tr := s.recorder.Offer(obs.CompletedRequest{
					RequestID: rid,
					TraceID:   traceID,
					Endpoint:  endpoint,
					Status:    sw.status,
					Error:     sw.status >= 500,
					Degraded:  degraded,
					Start:     start,
					Duration:  elapsed,
					Root:      span,
					Explain:   ex,
				})
				// An errored or tail-slow request is the one an operator
				// looks for: its access line goes out at Warn and names the
				// class, and its trace_id opens the span tree at
				// /debug/traces/{id}.
				if tr != nil && tr.Class != obs.TraceBaseline {
					level = slog.LevelWarn
					args = append(args, "retained", tr.Class, "threshold_us", tr.ThresholdUS)
				}
			}
			s.log.Log(r.Context(), level, "request", args...)
		}()

		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		if limited {
			if !s.sem.tryAcquire() {
				sw.Header().Set("Retry-After", "1")
				writeError(sw, http.StatusTooManyRequests, ErrCodeOverloaded,
					fmt.Sprintf("server saturated (%d queries in flight); retry", cap(s.sem)), rid)
				return
			}
			defer s.sem.release()
			s.admitted.Add(1)
			if s.cfg.QueryTimeout > 0 {
				// The slot is held until the handler returns, and the query
				// context does not bound reading the body: a client that
				// trickles it in would hold the slot past the timeout. The
				// read deadline does, until decodeJSON clears it. It fails
				// only off a connection (a test's recorder), which has no
				// body to wait for.
				_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.cfg.QueryTimeout))
				ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		h(sw, r)
	})
}

// writeJSON writes v as the JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes the uniform error envelope: a stable machine-readable
// code, the human-readable message, and the request id.
func writeError(w http.ResponseWriter, status int, code, msg, rid string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{Code: code, Message: msg, RequestID: rid}})
}

// requestID returns the ID the middleware assigned to this response.
func requestID(w http.ResponseWriter) string { return w.Header().Get("X-Request-Id") }

// decodeJSON parses the request body into v and reports whether it could.
// When it could not, it has answered the request: 408 deadline_exceeded
// when the body did not arrive before the read deadline, 400
// invalid_request for any other failure. On success it clears the read
// deadline admission set: left set, net/http's background read would
// cancel the request context when it passes, and a query that outlives
// its timeout would answer 499 instead of 504. On failure the deadline
// stays, so that net/http's discard of an unread body after the handler
// cannot wait on a slow client without one.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			writeError(w, http.StatusRequestTimeout, ErrCodeDeadlineExceeded,
				fmt.Sprintf("request body not received in time: %v", err), requestID(w))
		} else {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, fmt.Sprintf("invalid JSON body: %v", err), requestID(w))
		}
		return false
	}
	_ = http.NewResponseController(w).SetReadDeadline(time.Time{}) // fails as admission's does
	return true
}
