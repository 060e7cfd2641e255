package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanTree: children nest, durations freeze at End, and the snapshot
// carries names, offsets, attributes and structure.
func TestSpanTree(t *testing.T) {
	root := New("request")
	root.SetStr("request_id", "r1")

	filter := root.StartChild("filter")
	time.Sleep(time.Millisecond)
	filter.SetInt("candidates", 42)
	filter.End()

	refine := root.StartChild("refine")
	time.Sleep(time.Millisecond)
	refine.SetInt("verified", 7)
	refine.End()
	root.End()

	if root.Duration() < filter.Duration()+refine.Duration() {
		t.Errorf("root %v shorter than children %v + %v",
			root.Duration(), filter.Duration(), refine.Duration())
	}
	frozen := root.Duration()
	root.End() // second End is a no-op
	if root.Duration() != frozen {
		t.Errorf("second End changed duration %v -> %v", frozen, root.Duration())
	}

	snap := root.Snapshot()
	if snap.Name != "request" || snap.StartUS != 0 {
		t.Errorf("root snapshot %+v", snap)
	}
	if snap.Attrs["request_id"] != "r1" {
		t.Errorf("root attrs %v", snap.Attrs)
	}
	if len(snap.Children) != 2 || snap.Children[0].Name != "filter" || snap.Children[1].Name != "refine" {
		t.Fatalf("children %+v", snap.Children)
	}
	if got := snap.Children[0].Attrs["candidates"]; got != int64(42) {
		t.Errorf("filter candidates attr %v (%T)", got, got)
	}
	if snap.Children[1].StartUS < snap.Children[0].DurUS {
		t.Errorf("refine started at %dus, before filter's %dus ended",
			snap.Children[1].StartUS, snap.Children[0].DurUS)
	}
	var sum int64
	for _, c := range snap.Children {
		sum += c.DurUS
	}
	if sum > snap.DurUS {
		t.Errorf("children durations %dus exceed root %dus", sum, snap.DurUS)
	}
}

// TestNilSpan: every method is a no-op on nil, the contract that lets
// instrumented code skip nil checks.
func TestNilSpan(t *testing.T) {
	var s *Span
	c := s.StartChild("x")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	s.SetInt("k", 1)
	s.SetStr("k", "v")
	s.SetBool("k", true)
	s.End()
	if s.Duration() != 0 {
		t.Errorf("nil span has state: %v", s.Duration())
	}
	if snap := s.Snapshot(); snap.Name != "" || len(snap.Children) != 0 {
		t.Errorf("nil snapshot %+v", snap)
	}
}

// TestSpanContext: spans travel through contexts.
func TestSpanContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context has a span")
	}
	root := New("root")
	ctx := NewContext(context.Background(), root)
	if FromContext(ctx) != root {
		t.Fatal("span did not round-trip the context")
	}
}

// TestSpanConcurrentChildren: concurrent child creation and attr setting
// is safe (the batch endpoint attaches per-query spans from workers).
func TestSpanConcurrentChildren(t *testing.T) {
	root := New("batch")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.StartChild("query")
			c.SetInt("n", 1)
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if n := len(root.Snapshot().Children); n != 32 {
		t.Fatalf("children %d, want 32", n)
	}
}

// TestSnapshotLogValue: the snapshot renders as nested slog groups whose
// attribute keys survive into both JSON and text handler output.
func TestSnapshotLogValue(t *testing.T) {
	root := New("req")
	f := root.StartChild("filter")
	f.SetInt("candidates", 5)
	f.End()
	root.End()

	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, nil))
	log.Info("snapshot written", "trees", 42, "trace", root.Snapshot())

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log record not JSON: %v\n%s", err, buf.String())
	}
	trace, ok := rec["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace group in %v", rec)
	}
	filter, ok := trace["filter"].(map[string]any)
	if !ok {
		t.Fatalf("no filter group in %v", trace)
	}
	if filter["candidates"] != float64(5) {
		t.Errorf("filter candidates %v", filter["candidates"])
	}
	if !strings.Contains(buf.String(), "dur_us") {
		t.Error("no dur_us in log output")
	}
}
