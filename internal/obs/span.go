// Package obs is the repository's lightweight observability layer:
// per-request span trees, lock-free histograms and a Prometheus text
// renderer, all on the standard library alone.
//
// A Span is one timed region of work. Spans form a tree per request: the
// server's middleware opens a root span, threads it through the request
// context, and the search engine hangs filter/refine child spans (with
// candidate and verification counts as attributes) off whatever span the
// context carries. The whole tree renders three ways: inline in a JSON
// response (?trace=1), as structured slog attributes (the snapshot
// log line), and — aggregated through Histogram — as /metrics families.
//
// Every method is safe on a nil *Span and does nothing, so instrumented
// code calls spans unconditionally; running without a tracing context
// costs one nil check per call.
package obs

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are int64, float64,
// string or bool.
type Attr struct {
	Key   string
	Value any
}

// Span is one node of a trace tree. Create roots with New, children with
// StartChild, and close each span with End. Methods are safe for
// concurrent use (a batch request appends child spans from many
// goroutines) and safe on a nil receiver.
type Span struct {
	name  string
	start time.Time // carries the monotonic clock

	// W3C identity: every span belongs to a 128-bit trace and has a
	// 64-bit id of its own; parentID is the caller's span (a remote one
	// for a root continuing an inbound traceparent). Immutable after
	// creation, so reads need no lock.
	traceID  TraceID
	spanID   SpanID
	parentID SpanID
	state    string // raw tracestate, roots only

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// New starts a root span of a fresh trace.
func New(name string) *Span {
	return &Span{name: name, start: time.Now(), traceID: NewTraceID(), spanID: NewSpanID()}
}

// NewRemote starts a root span that continues a caller's trace: same
// trace id, parented under the caller's span, tracestate carried along
// into the snapshot. An invalid context falls back to a fresh trace — the
// spec's rule for unusable headers.
func NewRemote(name string, tc TraceContext) *Span {
	if !tc.Valid() {
		return New(name)
	}
	return &Span{
		name:     name,
		start:    time.Now(),
		traceID:  tc.TraceID,
		spanID:   NewSpanID(),
		parentID: tc.SpanID,
		state:    tc.State,
	}
}

// StartChild starts and attaches a child span, inheriting the trace id.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), traceID: s.traceID, spanID: NewSpanID(), parentID: s.spanID}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// TraceID returns the span's trace id (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// End freezes the span's duration. Later Ends are no-ops, so deferred and
// explicit ends can coexist on error paths.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Duration returns the frozen duration of an ended span, or the elapsed
// time so far of a running one.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SetAttr appends one annotation.
func (s *Span) SetAttr(a Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) { s.SetAttr(Attr{Key: key, Value: v}) }

// SetStr annotates the span with a string value.
func (s *Span) SetStr(key, v string) { s.SetAttr(Attr{Key: key, Value: v}) }

// SetBool annotates the span with a boolean value.
func (s *Span) SetBool(key string, v bool) { s.SetAttr(Attr{Key: key, Value: v}) }

// ctxKey carries the active span in a context.
type ctxKey struct{}

// NewContext returns ctx carrying s as the active span.
func NewContext(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span, or nil when ctx carries none — a
// valid no-op receiver, so callers never branch on it.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// SpanSnapshot is the serializable form of a span tree: JSON for ?trace=1
// responses and retained traces, slog groups (via LogValue) for the
// snapshot log line. StartUS is the span's start relative to the snapshot
// root.
type SpanSnapshot struct {
	Name string `json:"name"`
	// Hex W3C identities; ParentSpanID is empty on a root that started
	// its own trace. TraceState rides only on roots that received one.
	TraceID      string         `json:"trace_id,omitempty"`
	SpanID       string         `json:"span_id,omitempty"`
	ParentSpanID string         `json:"parent_span_id,omitempty"`
	TraceState   string         `json:"trace_state,omitempty"`
	StartUS      int64          `json:"start_us"`
	DurUS        int64          `json:"dur_us"`
	Attrs        map[string]any `json:"attrs,omitempty"`
	Children     []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot renders the tree rooted at s. A still-running span reports its
// elapsed time so far, so snapshotting just before the response is written
// yields a root that covers all its (ended) children.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	return s.snapshot(s.start)
}

func (s *Span) snapshot(base time.Time) SpanSnapshot {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	out := SpanSnapshot{
		Name:       s.name,
		TraceState: s.state,
		StartUS:    s.start.Sub(base).Microseconds(),
		DurUS:      dur.Microseconds(),
	}
	if !s.traceID.IsZero() {
		out.TraceID = s.traceID.String()
		out.SpanID = s.spanID.String()
		if !s.parentID.IsZero() {
			out.ParentSpanID = s.parentID.String()
		}
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()

	if len(children) > 0 {
		out.Children = make([]SpanSnapshot, len(children))
		for i, c := range children {
			out.Children[i] = c.snapshot(base)
		}
	}
	return out
}

// LogValue renders the snapshot as nested slog groups, so a logged span
// tree (the "snapshot written" record) stays structured under both text
// and JSON handlers.
func (sn SpanSnapshot) LogValue() slog.Value {
	attrs := make([]slog.Attr, 0, 2+len(sn.Attrs)+len(sn.Children))
	attrs = append(attrs,
		slog.Int64("start_us", sn.StartUS),
		slog.Int64("dur_us", sn.DurUS))
	keys := make([]string, 0, len(sn.Attrs))
	for k := range sn.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		attrs = append(attrs, slog.Any(k, sn.Attrs[k]))
	}
	for _, c := range sn.Children {
		attrs = append(attrs, slog.Attr{Key: c.Name, Value: c.LogValue()})
	}
	return slog.GroupValue(attrs...)
}
