package obs

import (
	"strings"
	"testing"
)

// renderSpanTree is FprintSpanTree into a string.
func renderSpanTree(sn SpanSnapshot) string {
	var b strings.Builder
	FprintSpanTree(&b, sn)
	return b.String()
}

func TestRenderSpanTree(t *testing.T) {
	sn := SpanSnapshot{
		Name:  "/v1/knn",
		DurUS: 2000,
		Attrs: map[string]any{"request_id": "r00000001"},
		Children: []SpanSnapshot{
			{Name: "filter", DurUS: 500, Attrs: map[string]any{"candidates": int64(41), "ashard": int64(2)}},
			{Name: "refine", DurUS: 1500, Attrs: map[string]any{"verified": int64(12)}},
		},
	}
	out := renderSpanTree(sn)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want 3:\n%s", len(lines), out)
	}
	for _, want := range []string{"/v1/knn", "request_id=r00000001", "100.0%"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("root line missing %q: %s", want, lines[0])
		}
	}
	// Children indent two spaces deeper than the root.
	if !strings.HasPrefix(lines[1], "    filter") {
		t.Errorf("child not indented: %q", lines[1])
	}
	// Attrs render sorted, so ashard precedes candidates.
	if a, c := strings.Index(lines[1], "ashard="), strings.Index(lines[1], "candidates="); a < 0 || c < 0 || a > c {
		t.Errorf("attrs not sorted on child line: %q", lines[1])
	}
	if !strings.Contains(lines[2], "75.0%") {
		t.Errorf("refine share of root time wrong: %q", lines[2])
	}
}

func TestRenderSpanTreeZeroRoot(t *testing.T) {
	// A zero-duration root must not divide by zero.
	out := renderSpanTree(SpanSnapshot{Name: "noop"})
	if !strings.Contains(out, "noop") || !strings.Contains(out, "0.0%") {
		t.Fatalf("zero-duration render: %q", out)
	}
}
