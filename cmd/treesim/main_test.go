package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/dataset"
	"treesim/internal/search"
	"treesim/internal/tree"
)

// writeTestData generates a small dataset file for CLI tests.
func writeTestData(t *testing.T) string {
	t.Helper()
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 12, SizeStd: 3, Labels: 5, Decay: 0.1}
	ts := datagen.New(spec, 9).Dataset(30, 5)
	path := filepath.Join(t.TempDir(), "data.trees")
	if err := dataset.SaveFile(path, ts); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout redirects os.Stdout around fn and returns what was
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestRunKNNCommand(t *testing.T) {
	data := writeTestData(t)
	out := captureStdout(t, func() {
		runKNN([]string{"-data", data, "-query-index", "3", "-k", "2"})
	})
	if !contains(out, "dist=0") || !contains(out, "filter BiBranch") {
		t.Errorf("knn output missing expected content:\n%s", out)
	}
}

func TestRunKNNFilters(t *testing.T) {
	data := writeTestData(t)
	for _, f := range []string{"bibranch", "bibranch-q3", "none"} {
		out := captureStdout(t, func() {
			runKNN([]string{"-data", data, "-query-index", "0", "-k", "1", "-filter", f})
		})
		if !contains(out, "dist=0") {
			t.Errorf("filter %s: output missing result:\n%s", f, out)
		}
	}
}

// TestRunHistoFilterRefused: the baselines the paper improves on are not
// served, so -filter histo and -filter bibranch-nopos fail before any
// query runs, pointing at the tool that replays them; a branch level
// outside [2, 16] fails the same way.
func TestRunHistoFilterRefused(t *testing.T) {
	data := writeTestData(t)
	for _, args := range [][]string{{"-filter", "histo"}, {"-filter", "bibranch-nopos"}, {"-q", "1"}, {"-q", "17"}} {
		var err error
		out := captureStdout(t, func() {
			err = runKNN(append([]string{"-data", data, "-query-index", "0", "-k", "1"}, args...))
		})
		if err == nil || out != "" {
			t.Fatalf("%v: err %v, output %q; want an error and no output", args, err, out)
		}
		if args[0] == "-filter" && !strings.Contains(err.Error(), "treesim-analyze") {
			t.Errorf("%v: error %q does not name treesim-analyze", args, err)
		}
	}
}

func TestRunRangeCommand(t *testing.T) {
	data := writeTestData(t)
	out := captureStdout(t, func() {
		runRange([]string{"-data", data, "-query-index", "5", "-tau", "2"})
	})
	if !contains(out, "tau=2") || !contains(out, "dist=0") {
		t.Errorf("range output missing expected content:\n%s", out)
	}
}

func TestRunDistCommand(t *testing.T) {
	out := captureStdout(t, func() {
		runDist([]string{"a(b(c,d),b(c,d),e)", "a(b(c,d,b(e)),c,d,e)"})
	})
	if !contains(out, "edit distance:        3") ||
		!contains(out, "binary branch dist:   9") {
		t.Errorf("dist output wrong:\n%s", out)
	}
}

func TestRunDiffCommand(t *testing.T) {
	out := captureStdout(t, func() {
		runDiff([]string{"a(b)", "a(c(b))"})
	})
	if !contains(out, "cost 1") || !contains(out, "insert") {
		t.Errorf("diff output wrong:\n%s", out)
	}
}

func TestRunStatsCommand(t *testing.T) {
	data := writeTestData(t)
	out := captureStdout(t, func() {
		runStats([]string{"-data", data})
	})
	if !contains(out, "trees:           30") || !contains(out, "branch space") {
		t.Errorf("stats output wrong:\n%s", out)
	}
}

func TestRunIndexAndQueryFromIndex(t *testing.T) {
	data := writeTestData(t)
	idx := filepath.Join(t.TempDir(), "data.tsix")
	out := captureStdout(t, func() {
		runIndex([]string{"-data", data, "-o", idx})
	})
	if !contains(out, "indexed 30 trees") {
		t.Errorf("index output wrong:\n%s", out)
	}
	out = captureStdout(t, func() {
		runKNN([]string{"-index", idx, "-query-index", "3", "-k", "2"})
	})
	if !contains(out, "dist=0") {
		t.Errorf("knn from saved index wrong:\n%s", out)
	}
}

func TestRunSelfJoinCommand(t *testing.T) {
	data := writeTestData(t)
	out := captureStdout(t, func() {
		runSelfJoin([]string{"-data", data, "-tau", "2", "-limit", "3"})
	})
	if !contains(out, "self-join of 30 trees") {
		t.Errorf("selfjoin output wrong:\n%s", out)
	}
}

func TestXMLDirInput(t *testing.T) {
	dir := t.TempDir()
	docs := map[string]string{
		"a.xml": "<r><a>one</a></r>",
		"b.xml": "<r><a>two</a></r>",
		"c.xml": "<r><b>one</b><b>three</b></r>",
	}
	for name, content := range docs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := captureStdout(t, func() {
		runKNN([]string{"-xml", dir, "-query", "r(a(one))", "-k", "1"})
	})
	if !contains(out, "dist=0") {
		t.Errorf("xml knn output wrong:\n%s", out)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestMissingDatasetError: a missing dataset file is a returned error (so
// main exits 1 with a message), never a panic or a zero exit.
func TestMissingDatasetError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.trees")
	for name, fn := range map[string]func([]string) error{
		"knn":      runKNN,
		"range":    runRange,
		"stats":    runStats,
		"index":    runIndex,
		"selfjoin": runSelfJoin,
	} {
		err := fn([]string{"-data", missing, "-query", "a(b)"})
		if name == "stats" || name == "index" || name == "selfjoin" {
			err = fn([]string{"-data", missing})
		}
		if err == nil {
			t.Errorf("%s with missing dataset: nil error", name)
			continue
		}
		if !contains(err.Error(), "no such file") {
			t.Errorf("%s with missing dataset: unclear error %q", name, err)
		}
	}
}

// TestBadQueryError: an unparsable -query is a clear returned error.
func TestBadQueryError(t *testing.T) {
	data := writeTestData(t)
	err := runKNN([]string{"-data", data, "-query", "a(b", "-k", "2"})
	if err == nil || !contains(err.Error(), "bad -query") {
		t.Errorf("bad query: error %v, want parse failure mentioning -query", err)
	}
	err = runRange([]string{"-data", data, "-query", "a(b,", "-tau", "1"})
	if err == nil || !contains(err.Error(), "bad -query") {
		t.Errorf("bad range query: error %v", err)
	}
}

// TestMissingQueryError: neither -query nor a valid -query-index.
func TestMissingQueryError(t *testing.T) {
	data := writeTestData(t)
	err := runKNN([]string{"-data", data})
	if err == nil || !contains(err.Error(), "need -query") {
		t.Errorf("missing query: error %v", err)
	}
	err = runKNN([]string{"-data", data, "-query-index", "999"})
	if err == nil || !contains(err.Error(), "need -query") {
		t.Errorf("out-of-range query index: error %v", err)
	}
}

// TestBadTreeArgsError: dist/diff reject malformed tree literals.
func TestBadTreeArgsError(t *testing.T) {
	if err := runDist([]string{"a(b", "c"}); err == nil || !contains(err.Error(), "bad first tree") {
		t.Errorf("dist bad tree: error %v", err)
	}
	if err := runDiff([]string{"a", "c)"}); err == nil || !contains(err.Error(), "bad second tree") {
		t.Errorf("diff bad tree: error %v", err)
	}
	if err := runDist([]string{"a"}); err == nil || !contains(err.Error(), "exactly two") {
		t.Errorf("dist arity: error %v", err)
	}
}

// TestUnknownFilterError: a bogus -filter name is a returned error, and so
// is seq: the sequence bound is editdist.SequenceLowerBound, not a filter.
func TestUnknownFilterError(t *testing.T) {
	data := writeTestData(t)
	for _, name := range []string{"bogus", "seq"} {
		err := runKNN([]string{"-data", data, "-query-index", "0", "-filter", name})
		if err == nil || !contains(err.Error(), "unknown filter") {
			t.Errorf("-filter %s: error %v", name, err)
		}
	}
}

// TestBadIndexFileError: loading a non-index file fails cleanly.
func TestBadIndexFileError(t *testing.T) {
	data := writeTestData(t) // a line-format dataset, not an index
	err := runKNN([]string{"-index", data, "-query", "a(b)"})
	if err == nil || !contains(err.Error(), "magic") {
		t.Errorf("bad index file: error %v", err)
	}
}

// writeIndexWithDelete saves a 3-tree index whose tree 1 is deleted.
func writeIndexWithDelete(t *testing.T) string {
	t.Helper()
	ix := search.NewIndex([]*tree.Tree{tree.MustParse("a(b)"), tree.MustParse("a(c)"), tree.MustParse("a(b,c)")}, search.NewBiBranch())
	ix.Delete(1)
	path := filepath.Join(t.TempDir(), "ix.tsix")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := search.SaveIndex(f, ix); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQueryIndexDeletedTree: from an index file, -query-index names a
// live tree, or the query is refused with an error.
func TestQueryIndexDeletedTree(t *testing.T) {
	idx := writeIndexWithDelete(t)
	for _, run := range []func([]string) error{runKNN, runRange} {
		if err := run([]string{"-index", idx, "-query-index", "1"}); err == nil || !contains(err.Error(), "deleted") {
			t.Errorf("deleted -query-index: error %v", err)
		}
		if err := run([]string{"-index", idx, "-query-index", "3"}); err == nil || !contains(err.Error(), "-query-index") {
			t.Errorf("out-of-range -query-index: error %v", err)
		}
	}
	out := captureStdout(t, func() {
		if err := runKNN([]string{"-index", idx, "-query-index", "2", "-k", "1"}); err != nil {
			t.Error(err)
		}
	})
	if !contains(out, "dist=0  id=2") {
		t.Errorf("knn from a live -query-index:\n%s", out)
	}
}

// TestIndexFilterFlags: with -index the file's filter answers unless
// -filter or -q is set, which then replaces it; an unknown name and the
// sequential scan, which an index file cannot hold, are refused.
func TestIndexFilterFlags(t *testing.T) {
	idx := writeIndexWithDelete(t)
	for _, c := range []struct {
		args    []string
		q       int
		wantErr string
	}{
		{nil, 2, ""},
		{[]string{"-filter", "bibranch-q3"}, 3, ""},
		{[]string{"-q", "4"}, 4, ""},
		{[]string{"-filter", "bogus"}, 0, "unknown filter"},
		{[]string{"-filter", "none"}, 0, "cannot replace"},
	} {
		fs := flag.NewFlagSet("knn", flag.ContinueOnError)
		var df dataFlags
		df.register(fs)
		if err := fs.Parse(append([]string{"-index", idx, "-query-index", "0"}, c.args...)); err != nil {
			t.Fatal(err)
		}
		ix, _, err := df.buildIndex()
		switch {
		case c.wantErr != "":
			if err == nil || !contains(err.Error(), c.wantErr) {
				t.Errorf("%v: error %v, want %q", c.args, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%v: %v", c.args, err)
		case ix.Filter().Q != c.q:
			t.Errorf("%v: index answers at q=%d, want %d", c.args, ix.Filter().Q, c.q)
		}
	}
}
