package obs

import (
	"fmt"
	"io"
	"sort"
)

// FprintSpanTree renders a span tree as indented text, one line per span
// with its duration, share of the root's time and sorted attributes:
//
//	/v1/knn         1789us 100.0%  request_id=r00000001
//	  filter          312us  17.4%  candidates=41
//	  refine         1401us  78.3%  verified=12
//
// It is the one human-facing span formatter in the repo, shared by
// examples/client -trace, cmd/treesim-trace and anything else that wants
// a terminal-friendly trace (structured logs go through LogValue
// instead).
func FprintSpanTree(w io.Writer, sn SpanSnapshot) {
	fprintSpan(w, sn, 0, sn.DurUS)
}

func fprintSpan(w io.Writer, sp SpanSnapshot, depth int, rootUS int64) {
	pct := 0.0
	if rootUS > 0 {
		pct = 100 * float64(sp.DurUS) / float64(rootUS)
	}
	fmt.Fprintf(w, "  %*s%-12s %8dus %5.1f%%", depth*2, "", sp.Name, sp.DurUS, pct)
	// Attrs in sorted order so transcripts are stable.
	keys := make([]string, 0, len(sp.Attrs))
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s=%v", k, sp.Attrs[k])
	}
	fmt.Fprintln(w)
	for _, c := range sp.Children {
		fprintSpan(w, c, depth+1, rootUS)
	}
}
