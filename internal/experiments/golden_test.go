package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/figures*.golden files from this run")

// goldenTables renders the timing-free columns of Figs. 7–14 and both
// ablations at cfg: every row's query parameter, BiBranch %, Histo % and
// result %. The percentages come from the sequential replay of the paper's
// algorithm, so they are deterministic.
func goldenTables(cfg Config) string {
	var b strings.Builder
	for _, t := range []*Table{
		Fig07(cfg), Fig08(cfg), Fig09(cfg), Fig10(cfg), Fig11(cfg), Fig12(cfg), Fig13(cfg), Fig14(cfg),
		AblationPositional(cfg), AblationQ(cfg),
	} {
		fmt.Fprintf(&b, "%s\n", t.Figure)
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "  %s=%s tau=%d k=%d bibranch=%.4f histo=%.4f result=%.4f\n",
				t.XLabel, r.X, r.Tau, r.K, r.BiBranchPct, r.HistoPct, r.ResultPct)
		}
	}
	return b.String()
}

// TestFiguresGolden pins what the paper's figures measure: a change to a
// filter's bound, to the replay or to the datasets moves a percentage and
// fails here, rather than drifting silently through EXPERIMENTS.md. Rewrite
// the files with `go test -run FiguresGolden -update ./internal/experiments`
// only when a figure is meant to move, and say why in the change. The quick
// scale takes seconds, so it is skipped under the race detector.
func TestFiguresGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		file string
	}{
		{"unit", UnitScale(), "figures.golden"},
		{"quick", QuickScale(), "figures_quick.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "quick" && raceEnabled {
				t.Skip("quick scale: skipped under -race")
			}
			checkGolden(t, goldenTables(tc.cfg), filepath.Join("testdata", tc.file))
		})
	}
}

func checkGolden(t *testing.T, got, path string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
