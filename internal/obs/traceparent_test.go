package obs

import (
	"strings"
	"testing"
)

const (
	tpTrace  = "4bf92f3577b34da6a3ce929d0e0e4736"
	tpParent = "00f067aa0ba902b7"
)

func TestParseTraceparentValid(t *testing.T) {
	for _, tt := range []struct {
		header  string
		sampled bool
	}{
		{"00-" + tpTrace + "-" + tpParent + "-01", true},
		{"00-" + tpTrace + "-" + tpParent + "-00", false},
		{"00-" + tpTrace + "-" + tpParent + "-ff", true},
		// A future version may carry extra fields; the four known ones
		// must still parse.
		{"cc-" + tpTrace + "-" + tpParent + "-01-extra-stuff", true},
	} {
		tc, err := ParseTraceparent(tt.header)
		if err != nil {
			t.Errorf("ParseTraceparent(%q): %v", tt.header, err)
			continue
		}
		if tc.TraceID.String() != tpTrace || tc.SpanID.String() != tpParent {
			t.Errorf("ParseTraceparent(%q) ids %s/%s", tt.header, tc.TraceID, tc.SpanID)
		}
		if tc.Sampled() != tt.sampled {
			t.Errorf("ParseTraceparent(%q) sampled=%v, want %v", tt.header, tc.Sampled(), tt.sampled)
		}
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"00",
		"00-" + tpTrace,
		"00-" + tpTrace + "-" + tpParent,         // missing flags
		"ff-" + tpTrace + "-" + tpParent + "-01", // version ff forbidden
		"0-" + tpTrace + "-" + tpParent + "-01",  // one-digit version
		"000-" + tpTrace + "-" + tpParent + "-01",                 // three-digit version
		"0g-" + tpTrace + "-" + tpParent + "-01",                  // non-hex version
		"00-" + strings.Repeat("0", 32) + "-" + tpParent + "-01",  // all-zero trace id
		"00-" + tpTrace + "-0000000000000000-01",                  // all-zero parent id
		"00-" + strings.ToUpper(tpTrace) + "-" + tpParent + "-01", // uppercase trace id
		"00-" + tpTrace[:30] + "-" + tpParent + "-01",             // short trace id
		"00-" + tpTrace + "ab-" + tpParent + "-01",                // long trace id
		"00-" + tpTrace + "-" + tpParent[:14] + "-01",             // short parent id
		"00-" + tpTrace + "-" + tpParent + "-1",                   // one-digit flags
		"00-" + tpTrace + "-" + tpParent + "-0g",                  // junk flags
		"00-" + tpTrace + "-" + tpParent + "-01-extra",            // version 00 with 5 fields
		"00_" + tpTrace + "_" + tpParent + "_01",                  // wrong separator
	} {
		if tc, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", bad, tc)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	orig := NewTraceContext()
	tc, err := ParseTraceparent(orig.Traceparent())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if tc.TraceID != orig.TraceID || tc.SpanID != orig.SpanID || tc.Flags != orig.Flags {
		t.Fatalf("round trip changed the context: %+v vs %+v", tc, orig)
	}
}

func TestWithNewSpan(t *testing.T) {
	tc := NewTraceContext()
	retry := tc.WithNewSpan()
	if retry.TraceID != tc.TraceID {
		t.Error("WithNewSpan changed the trace id")
	}
	if retry.SpanID == tc.SpanID {
		t.Error("WithNewSpan kept the span id")
	}
}

func TestRetryState(t *testing.T) {
	if got := RetryState(2); got != "treesim=retry:2" {
		t.Fatalf("RetryState(2) = %q", got)
	}
	for _, tt := range []struct {
		state string
		n     int
		ok    bool
	}{
		{"treesim=retry:0", 0, true},
		{"treesim=retry:7", 7, true},
		{"othervendor=abc,treesim=retry:3", 3, true},
		{" treesim=retry:1 , other=x", 1, true},
		{"", 0, false},
		{"othervendor=abc", 0, false},
		{"treesim=congo:4", 0, false},
		{"treesim=retry:-1", 0, false},
		{"treesim=retry:x", 0, false},
	} {
		n, ok := ParseRetryState(tt.state)
		if n != tt.n || ok != tt.ok {
			t.Errorf("ParseRetryState(%q) = %d, %v; want %d, %v", tt.state, n, ok, tt.n, tt.ok)
		}
	}
}

// TestTraceStateWithinLimits pins W3C's tracestate limits at their
// edges: 512 characters and 32 non-empty members pass, one more of either
// fails, and empty members count for nothing.
func TestTraceStateWithinLimits(t *testing.T) {
	members := func(n int) string {
		m := make([]string, n)
		for i := range m {
			m[i] = "v" + strings.Repeat("x", i%3) + "=1"
		}
		return strings.Join(m, ",")
	}
	for _, tt := range []struct {
		name  string
		state string
		ok    bool
	}{
		{"empty", "", true},
		{"ours", RetryState(3), true},
		{"512 characters", "a=" + strings.Repeat("x", 510), true},
		{"513 characters", "a=" + strings.Repeat("x", 511), false},
		{"512 KiB", RetryState(1) + "," + strings.Repeat("x", 512<<10), false},
		{"32 members", members(32), true},
		{"33 members", members(33), false},
		{"32 members among empty ones", ",, " + members(32) + " ,,\t,", true},
	} {
		if got := TraceStateWithinLimits(tt.state); got != tt.ok {
			t.Errorf("%s: TraceStateWithinLimits = %v, want %v", tt.name, got, tt.ok)
		}
	}
}

// FuzzParseTraceparent asserts the parser's core property on arbitrary
// input: it either rejects the header, or it returns a context whose
// rendered form parses back to the identical identity — and it never
// yields an all-zero id, the spec's "restart the trace" precondition.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-" + tpTrace + "-" + tpParent + "-01")
	f.Add("00-" + strings.Repeat("0", 32) + "-" + tpParent + "-01")
	f.Add("ff-" + tpTrace + "-" + tpParent + "-01")
	f.Add("00-" + tpTrace + "-" + tpParent + "-00")
	f.Add("cc-" + tpTrace + "-" + tpParent + "-01-future")
	f.Add("garbage")
	f.Add("00-xyz-abc-zz")
	f.Fuzz(func(t *testing.T, header string) {
		tc, err := ParseTraceparent(header)
		if err != nil {
			// The middleware's fallback path: a rejected header must leave
			// NewRemote starting a usable fresh trace.
			root := NewRemote("req", tc)
			if root.TraceID().IsZero() || root.spanID.IsZero() {
				t.Fatalf("fallback trace unusable for header %q", header)
			}
			return
		}
		if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
			t.Fatalf("accepted header %q with zero identity", header)
		}
		back, err := ParseTraceparent(tc.Traceparent())
		if err != nil {
			t.Fatalf("re-render of %q does not parse: %v", header, err)
		}
		if back.TraceID != tc.TraceID || back.SpanID != tc.SpanID || back.Flags != tc.Flags {
			t.Fatalf("round trip of %q changed identity: %+v vs %+v", header, back, tc)
		}
	})
}
