package obs

import (
	"encoding/binary"
	"encoding/hex"
	"os"
	"sync/atomic"
	"time"
)

// Trace identity: every span tree carries a W3C-shaped 128-bit trace ID
// and each span a 64-bit span ID, so a trace survives an HTTP hop — the
// router of a future multi-node cluster parses the inbound traceparent
// header, its shard fan-out reuses the same trace ID, and a collector
// joins the pieces back into one tree.
//
// IDs come from an IDSource: a process-local splitmix64 stream behind a
// single atomic counter. The package default is seeded once per process
// (start time xor pid), never the math/rand global — the sequence after
// the seed is fully deterministic, which is what tests pin down with
// NewIDSource(fixedSeed).

// TraceID is a 128-bit W3C trace id. The all-zero value is invalid per
// the trace-context spec and doubles as "no trace".
type TraceID [16]byte

// SpanID is a 64-bit W3C span (parent) id. All-zero means "no span".
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits (the wire form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits (the wire form).
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes 32 hex digits; ok is false on bad length, bad
// digits (uppercase included, per the spec), or the all-zero id.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if !decodeLowerHex(t[:], s) || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// ParseSpanID decodes 16 hex digits; ok is false on bad length, bad
// digits, or the all-zero id.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if !decodeLowerHex(id[:], s) || id.IsZero() {
		return SpanID{}, false
	}
	return id, true
}

// decodeLowerHex fills dst from exactly len(dst)*2 lowercase hex digits.
// encoding/hex accepts uppercase, which the trace-context ABNF does not,
// so the digit check is explicit.
func decodeLowerHex(dst []byte, s string) bool {
	if len(s) != len(dst)*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// IDSource generates trace and span ids: splitmix64 over an atomic
// counter, so concurrent draws never repeat and a fixed seed replays the
// exact sequence.
type IDSource struct {
	state atomic.Uint64
}

// NewIDSource returns a source whose sequence is fully determined by
// seed.
func NewIDSource(seed uint64) *IDSource {
	s := &IDSource{}
	s.state.Store(seed)
	return s
}

// next is one splitmix64 output step.
func (s *IDSource) next() uint64 {
	x := s.state.Add(0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TraceID draws a fresh non-zero 128-bit trace id.
func (s *IDSource) TraceID() TraceID {
	for {
		var t TraceID
		binary.BigEndian.PutUint64(t[:8], s.next())
		binary.BigEndian.PutUint64(t[8:], s.next())
		if !t.IsZero() {
			return t
		}
	}
}

// SpanID draws a fresh non-zero 64-bit span id.
func (s *IDSource) SpanID() SpanID {
	for {
		var id SpanID
		binary.BigEndian.PutUint64(id[:], s.next())
		if !id.IsZero() {
			return id
		}
	}
}

// ids is the process-wide default source. The seed folds the start time
// and pid so two processes started together diverge, but everything
// after the seed is a deterministic function of it.
var ids = NewIDSource(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)

// NewTraceID draws from the process default source.
func NewTraceID() TraceID { return ids.TraceID() }

// NewSpanID draws from the process default source.
func NewSpanID() SpanID { return ids.SpanID() }
