package search

import (
	"context"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/tree"
)

// TestExplainKNNConsistency: KNN with WithExplain returns the same results as the
// plain path, and the analysis is internally consistent — counters match
// the stats, the bound distribution is monotone and covers the dataset.
func TestExplainKNNConsistency(t *testing.T) {
	ts := testDataset(60, 80)
	ix := NewIndex(ts, NewBiBranch())
	q := testDataset(1, 81)[0]

	plain, _, _ := ix.KNN(context.Background(), q, 5)
	var ex *Explain
	res, stats, err := ix.KNN(context.Background(), q, 5, WithExplain(&ex))
	if err != nil {
		t.Fatal(err)
	}
	if ex == nil {
		t.Fatal("no explain")
	}
	if !sameDistances(plain, res) {
		t.Fatalf("explain path changed results: %v vs %v", dists(plain), dists(res))
	}
	if ex.Op != "knn" || ex.K != 5 {
		t.Errorf("op=%q k=%d, want knn/5", ex.Op, ex.K)
	}
	if ex.Filter != "BiBranch" || ex.Dataset != 60 {
		t.Errorf("filter=%q dataset=%d", ex.Filter, ex.Dataset)
	}
	if ex.Candidates != stats.Candidates || ex.Verified != stats.Verified ||
		ex.FalsePositives != stats.FalsePositives || ex.Results != stats.Results {
		t.Errorf("explain counters %+v disagree with stats %+v", ex, stats)
	}
	if ex.FalsePositives != ex.Verified-ex.Results {
		t.Errorf("false positives %d != verified-results %d-%d", ex.FalsePositives, ex.Verified, ex.Results)
	}
	if ex.Bounds.Computed != 60 {
		t.Errorf("knn computed %d bounds, want 60 (all trees bounded)", ex.Bounds.Computed)
	}
	if ex.Bounds.Min > ex.Bounds.P50 || ex.Bounds.P50 > ex.Bounds.P99 || ex.Bounds.P99 > ex.Bounds.Max {
		t.Errorf("bound distribution not monotone: %+v", ex.Bounds)
	}
	// Every verified result's distance is >= the minimum bound's floor.
	if len(res) > 0 && res[len(res)-1].Dist < ex.Bounds.Min {
		t.Errorf("k-th distance %d below min bound %d", res[len(res)-1].Dist, ex.Bounds.Min)
	}
}

// TestExplainRangeConsistency: same contract on the range path, where the
// filter may prune without computing every positional bound.
func TestExplainRangeConsistency(t *testing.T) {
	ts := testDataset(50, 82)
	ix := NewIndex(ts, NewBiBranch())
	q := ts[10]

	plain, _, _ := ix.Range(context.Background(), q, 4)
	var ex *Explain
	res, stats, err := ix.Range(context.Background(), q, 4, WithExplain(&ex))
	if err != nil {
		t.Fatal(err)
	}
	if !sameDistances(plain, res) {
		t.Fatalf("explain path changed results")
	}
	if ex.Op != "range" || ex.Tau != 4 {
		t.Errorf("op=%q tau=%d, want range/4", ex.Op, ex.Tau)
	}
	if ex.Candidates != stats.Candidates || ex.Candidates < ex.Verified {
		t.Errorf("candidates %d (stats %d), verified %d", ex.Candidates, stats.Candidates, ex.Verified)
	}
	if ex.Bounds.Computed == 0 || ex.Bounds.Computed > 50 {
		t.Errorf("range computed %d bounds", ex.Bounds.Computed)
	}
	if ex.AccessedFraction != stats.AccessedFraction() {
		t.Errorf("accessed fraction %v != stats %v", ex.AccessedFraction, stats.AccessedFraction())
	}
}

// TestTightnessWithinFactor: for q in {2,3,4}, every tightness sample on
// both query paths respects Theorem 4.1's bound BDist <= Factor(q)*EDist,
// and the explain reports exactly that factor as the limit.
func TestTightnessWithinFactor(t *testing.T) {
	ts := testDataset(40, 83)
	for _, q := range []int{2, 3, 4} {
		ix := NewIndex(ts, &BiBranch{Q: q})
		want := branch.Factor(q)
		query := ts[3]
		var exK, exR *Explain
		if _, _, err := ix.KNN(context.Background(), query, 4, WithExplain(&exK)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ix.Range(context.Background(), query, 6, WithExplain(&exR)); err != nil {
			t.Fatal(err)
		}
		for _, ex := range []*Explain{exK, exR} {
			if ex.TightnessLimit != want {
				t.Errorf("q=%d: tightness limit %d, want %d", q, ex.TightnessLimit, want)
			}
			if len(ex.Tightness) == 0 {
				t.Errorf("q=%d %s: no tightness samples", q, ex.Op)
			}
			for _, s := range ex.Tightness {
				if s.Exact <= 0 {
					t.Errorf("q=%d: sample with exact=%d", q, s.Exact)
				}
				if s.BDist > want*s.Exact {
					t.Errorf("q=%d: BDist %d > %d*EDist %d — violates Theorem 4.1", q, s.BDist, want, s.Exact)
				}
				if s.Ratio > float64(want) {
					t.Errorf("q=%d: ratio %.3f exceeds factor %d", q, s.Ratio, want)
				}
			}
		}
	}
}

// TestExplainFilterlessPaths: the sequential scan, chosen or forced by a
// cost model without a minimum, has no branch embedding and produces a
// valid explain with no tightness samples and no factor claim.
func TestExplainFilterlessPaths(t *testing.T) {
	ts := testDataset(20, 84)
	for _, ix := range []*Index{NewIndex(ts), NewIndex(ts, NewBiBranch(), WithCostModel(freeRelabels{}))} {
		f := ix.Filter()
		var ex *Explain
		_, _, err := ix.KNN(context.Background(), ts[0], 3, WithExplain(&ex))
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Tightness) != 0 {
			t.Errorf("%s produced tightness samples without a branch embedding", f.Name())
		}
		if ex.TightnessLimit != 0 {
			t.Errorf("%s claims factor %d", f.Name(), ex.TightnessLimit)
		}
		if ex.Verified == 0 || ex.Dataset != 20 {
			t.Errorf("%s explain incomplete: %+v", f.Name(), ex)
		}
	}
}

// TestExplainString: the terminal rendering is stable up to timings —
// the golden form for a seeded index, with stage micros normalized.
func TestExplainString(t *testing.T) {
	ts := testDataset(30, 85)
	ix := NewIndex(ts, NewBiBranch())
	var ex *Explain
	_, _, err := ix.KNN(context.Background(), ts[5], 3, WithExplain(&ex))
	if err != nil {
		t.Fatal(err)
	}
	got := ex.String()
	// Normalize the only nondeterministic parts: the stage timings.
	got = regexp.MustCompile(`filter=\d+µs refine=\d+µs`).ReplaceAllString(got, "filter=Xµs refine=Xµs")
	for _, want := range []string{
		"explain: knn k=3 filter=BiBranch dataset=30\n",
		"false_positives=", "accessed=0.",
		"funnel: 30 -size-> ", " -bdist-> ", " -label-> ", " -positional-> ",
		"bounds: computed=30 ",
		"refine: aborted=", " precheck_rejects=", " dp_cells=",
		"stages: filter=Xµs refine=Xµs\n",
		"tightness BDist/EDist (proven ≤ 5):",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendering lacks %q:\n%s", want, got)
		}
	}
	// The whole layout: six-plus lines, each prefixed predictably.
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 7 {
		t.Errorf("rendering has %d lines, want 7:\n%s", len(lines), got)
	}
}

// TestStatsQualityCounters: the always-on Stats counters (no explain
// requested) carry candidates, false positives and capped tightness
// samples, and Add aggregates them with the cap.
func TestStatsQualityCounters(t *testing.T) {
	ts := testDataset(40, 86)
	ix := NewIndex(ts, NewBiBranch())
	_, stats, _ := ix.KNN(context.Background(), ts[7], 5)
	if stats.Candidates <= 0 || stats.Candidates > 40 {
		t.Errorf("candidates %d outside (0,40]", stats.Candidates)
	}
	if stats.FalsePositives != stats.Verified-stats.Results {
		t.Errorf("false positives %d != verified-results", stats.FalsePositives)
	}
	if len(stats.Tightness) == 0 {
		t.Error("plain KNN collected no tightness samples")
	}
	if stats.FalsePositiveRate() < 0 || stats.FalsePositiveRate() > 1 {
		t.Errorf("false positive rate %v outside [0,1]", stats.FalsePositiveRate())
	}

	var total Stats
	for i := 0; i < 2000; i++ {
		total.Add(stats)
	}
	if total.Candidates != 2000*stats.Candidates {
		t.Errorf("Add lost candidates: %d", total.Candidates)
	}
	if len(total.Tightness) > statsTightnessCap {
		t.Errorf("aggregated tightness grew to %d, cap is %d", len(total.Tightness), statsTightnessCap)
	}
}

// TestExplainBoundsRepeatable: a k-NN query runs on one goroutine, so one
// query list run again and again reports equal EXPLAIN bounds and equal
// Stats but for the two times — Verified, the bounded-verification
// counters, DP cells, candidates and the funnel included — at GOMAXPROCS 3,
// where a query that fanned its work out would vary with the timing.
func TestExplainBoundsRepeatable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 16, SizeStd: 5, Labels: 8, Decay: 0.1}
	g := datagen.New(spec, 7)
	ts := g.Dataset(400, 40)
	ix := NewIndex(ts, NewBiBranch())
	queries := make([]*tree.Tree, 60)
	for i := range queries {
		queries[i] = g.RandomEdits(ts[i*5], i%4)
	}
	type counted struct {
		bounds BoundDist
		stats  Stats
	}
	var first []counted
	for run := 0; run < 6; run++ {
		for qi, q := range queries {
			var ex *Explain
			_, st, err := ix.KNN(context.Background(), q, 5, WithExplain(&ex))
			if err != nil {
				t.Fatal(err)
			}
			st.FilterTime, st.RefineTime = 0, 0
			got := counted{ex.Bounds, st}
			if run == 0 {
				first = append(first, got)
			} else if !reflect.DeepEqual(got, first[qi]) {
				t.Fatalf("run %d, query %d: bounds %+v, stats %+v; first run %+v, %+v",
					run, qi, got.bounds, got.stats, first[qi].bounds, first[qi].stats)
			}
		}
	}
}
