package obs

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// W3C trace-context propagation (https://www.w3.org/TR/trace-context/):
// the traceparent header carries version, trace id, parent span id and
// flags as dash-separated lowercase hex —
//
//	traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//
// ParseTraceparent is deliberately strict about the fields it consumes
// and deliberately tolerant of the rest: a malformed header yields an
// error and the caller starts a fresh trace (the spec's "restart the
// trace" rule), an unknown future version parses as long as the four
// known fields are well-formed.

// FlagSampled is the traceparent flags bit meaning "the caller sampled
// this trace". Clients set it on the traces they start; the server parses
// it but keeps a trace by the flight recorder's rules alone.
const FlagSampled = 0x01

// TraceContext is one hop's propagation state: the trace identity, the
// caller's span id (the parent of whatever span the receiver opens), the
// flags byte, and the raw tracestate list, passed through verbatim.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
	State   string // raw tracestate header, "" when absent
}

// Valid reports whether the context carries a usable identity.
func (tc TraceContext) Valid() bool { return !tc.TraceID.IsZero() && !tc.SpanID.IsZero() }

// Sampled reports the sampled flag.
func (tc TraceContext) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// Traceparent renders the version-00 header value.
func (tc TraceContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", tc.TraceID, tc.SpanID, tc.Flags)
}

// NewTraceContext starts a fresh sampled trace from the process id
// source — what a client (or the first server in a chain) uses before
// its first outbound call.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
}

// WithNewSpan returns the context re-parented under a fresh span id:
// same trace, new caller identity. A client retry loop calls this per
// attempt, so every attempt is a distinct span of one trace.
func (tc TraceContext) WithNewSpan() TraceContext {
	tc.SpanID = NewSpanID()
	return tc
}

var (
	errTraceparentEmpty   = errors.New("empty traceparent")
	errTraceparentFields  = errors.New("traceparent needs at least 4 dash-separated fields")
	errTraceparentVersion = errors.New("bad traceparent version")
	errTraceparentTrace   = errors.New("bad traceparent trace-id")
	errTraceparentParent  = errors.New("bad traceparent parent-id")
	errTraceparentFlags   = errors.New("bad traceparent flags")
)

// ParseTraceparent parses a traceparent header value. Errors mean "start
// a fresh trace", per spec: version ff and malformed versions are
// rejected, trace and parent ids must be exact-length lowercase hex and
// non-zero, flags must be two hex digits. Version 00 must have exactly
// four fields; higher versions may carry more (forward compatibility)
// but never fewer.
func ParseTraceparent(h string) (TraceContext, error) {
	if h == "" {
		return TraceContext{}, errTraceparentEmpty
	}
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return TraceContext{}, errTraceparentFields
	}
	ver := parts[0]
	if len(ver) != 2 || !isLowerHex(ver) || ver == "ff" {
		return TraceContext{}, errTraceparentVersion
	}
	if ver == "00" && len(parts) != 4 {
		return TraceContext{}, errTraceparentFields
	}
	var tc TraceContext
	var ok bool
	if tc.TraceID, ok = ParseTraceID(parts[1]); !ok {
		return TraceContext{}, errTraceparentTrace
	}
	if tc.SpanID, ok = ParseSpanID(parts[2]); !ok {
		return TraceContext{}, errTraceparentParent
	}
	if len(parts[3]) != 2 || !isLowerHex(parts[3]) {
		return TraceContext{}, errTraceparentFlags
	}
	f, err := strconv.ParseUint(parts[3], 16, 8)
	if err != nil {
		return TraceContext{}, errTraceparentFlags
	}
	tc.Flags = byte(f)
	return tc, nil
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// W3C Trace Context's limits on tracestate: at most 32 list-members, and
// a receiver need not carry a value longer than 512 characters.
const (
	maxTraceStateLen     = 512
	maxTraceStateMembers = 32
)

// TraceStateWithinLimits reports whether a tracestate header value is
// within W3C's limits — at most 512 characters and 32 non-empty
// list-members — and so may be carried; a server drops any other value
// rather than hold it on a span. It allocates nothing.
func TraceStateWithinLimits(state string) bool {
	if len(state) > maxTraceStateLen {
		return false
	}
	members := 0
	for rest := state; rest != ""; {
		var member string
		member, rest, _ = strings.Cut(rest, ",")
		if strings.TrimSpace(member) != "" {
			members++
		}
	}
	return members <= maxTraceStateMembers
}

// The tracestate vendor member this repo uses to carry the client's
// retry counter: "treesim=retry:N". The server lifts it onto the root
// span as a retry attribute, so a retried request reads as one trace
// whose spans are numbered attempts instead of three unrelated traces.
const tracestateVendor = "treesim"

// RetryState renders the tracestate member for retry attempt n (0 is
// the first attempt).
func RetryState(n int) string {
	return tracestateVendor + "=retry:" + strconv.Itoa(n)
}

// ParseRetryState extracts the retry attempt from a tracestate header,
// tolerating other vendors' members around ours. ok is false when the
// treesim member is absent or malformed.
func ParseRetryState(state string) (int, bool) {
	for _, member := range strings.Split(state, ",") {
		member = strings.TrimSpace(member)
		val, found := strings.CutPrefix(member, tracestateVendor+"=")
		if !found {
			continue
		}
		num, found := strings.CutPrefix(val, "retry:")
		if !found {
			return 0, false
		}
		n, err := strconv.Atoi(num)
		if err != nil || n < 0 {
			return 0, false
		}
		return n, true
	}
	return 0, false
}
