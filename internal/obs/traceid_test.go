package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestIDSourceDeterministic(t *testing.T) {
	a, b := NewIDSource(42), NewIDSource(42)
	for i := 0; i < 100; i++ {
		if got, want := a.TraceID(), b.TraceID(); got != want {
			t.Fatalf("draw %d: sources diverged: %s vs %s", i, got, want)
		}
		if got, want := a.SpanID(), b.SpanID(); got != want {
			t.Fatalf("draw %d: span sources diverged: %s vs %s", i, got, want)
		}
	}
	c := NewIDSource(43)
	if a.TraceID() == c.TraceID() {
		t.Fatal("different seeds produced the same id")
	}
}

func TestIDSourceConcurrentUnique(t *testing.T) {
	src := NewIDSource(7)
	const workers, per = 8, 500
	var mu sync.Mutex
	seen := make(map[TraceID]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]TraceID, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, src.TraceID())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate trace id %s", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestParseTraceIDStrict(t *testing.T) {
	valid := "4bf92f3577b34da6a3ce929d0e0e4736"
	id, ok := ParseTraceID(valid)
	if !ok || id.String() != valid {
		t.Fatalf("ParseTraceID(%q) = %s, %v", valid, id, ok)
	}
	for _, bad := range []string{
		"",
		strings.Repeat("0", 32),            // all-zero invalid per spec
		strings.ToUpper(valid),             // uppercase forbidden by the ABNF
		valid[:31],                         // short
		valid + "0",                        // long
		"4bf92f3577b34da6a3ce929d0e0e473g", // non-hex digit
		"4bf92f3577b34da6-3ce929d0e0e4736xyz"[:32], // punctuation
	} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestParseSpanIDStrict(t *testing.T) {
	valid := "00f067aa0ba902b7"
	id, ok := ParseSpanID(valid)
	if !ok || id.String() != valid {
		t.Fatalf("ParseSpanID(%q) = %s, %v", valid, id, ok)
	}
	for _, bad := range []string{"", "0000000000000000", "00F067AA0BA902B7", "00f067aa0ba902", "00f067aa0ba902b7ff"} {
		if _, ok := ParseSpanID(bad); ok {
			t.Errorf("ParseSpanID(%q) accepted", bad)
		}
	}
}

func TestSpanIdentity(t *testing.T) {
	root := New("req")
	if root.TraceID().IsZero() || root.spanID.IsZero() {
		t.Fatal("fresh root has zero identity")
	}
	child := root.StartChild("filter")
	if child.TraceID() != root.TraceID() {
		t.Error("child did not inherit trace id")
	}
	if child.spanID == root.spanID {
		t.Error("child reused parent span id")
	}
	sn := root.Snapshot()
	if sn.TraceID != root.TraceID().String() || sn.SpanID != root.spanID.String() {
		t.Errorf("snapshot ids %s/%s don't match span %s/%s", sn.TraceID, sn.SpanID, root.TraceID(), root.spanID)
	}
	if sn.ParentSpanID != "" {
		t.Errorf("self-started root has parent %q", sn.ParentSpanID)
	}
	if len(sn.Children) != 1 || sn.Children[0].ParentSpanID != root.spanID.String() {
		t.Errorf("child snapshot not parented under root: %+v", sn.Children)
	}
}

func TestNewRemoteContinuesTrace(t *testing.T) {
	tc := NewTraceContext()
	tc.State = RetryState(2)
	root := NewRemote("req", tc)
	if root.TraceID() != tc.TraceID {
		t.Errorf("remote root trace %s, want caller's %s", root.TraceID(), tc.TraceID)
	}
	if root.spanID == tc.SpanID {
		t.Error("remote root reused the caller's span id")
	}
	sn := root.Snapshot()
	if sn.ParentSpanID != tc.SpanID.String() {
		t.Errorf("remote root parent %q, want caller span %s", sn.ParentSpanID, tc.SpanID)
	}
	if sn.TraceState != tc.State {
		t.Errorf("tracestate %q not carried, want %q", sn.TraceState, tc.State)
	}
	// Invalid inbound context: fresh trace, no parent.
	fresh := NewRemote("req", TraceContext{})
	if fresh.TraceID().IsZero() {
		t.Fatal("fallback root has no trace id")
	}
	if fresh.TraceID() == tc.TraceID {
		t.Error("fallback reused the invalid context's trace")
	}
}
