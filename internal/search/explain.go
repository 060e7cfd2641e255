package search

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"treesim/internal/obs"
)

// Filter-quality introspection: EXPLAIN records. The paper's experiments
// judge a filter by its candidate-set quality — accessed fraction, false
// positives, lower-bound tightness (the ≤ Factor(q) = 4(q-1)+1 gap between
// the binary branch distance and the real edit distance) — not by raw
// latency. An Explain captures exactly those quantities for one live query
// so they are observable per request (?explain=1, and the flight
// recorder's retained trace of such a request) and replayable offline
// (cmd/treesim-analyze).

// tightnessCap bounds how many tightness samples one query collects —
// enough for the tightness histogram without measurably taxing the refine
// loop (each sample reads the branch overlap the filter pass filled in,
// orders of magnitude cheaper than the edit distance already paid for the
// pair).
const tightnessCap = 16

// statsTightnessCap bounds Stats.Tightness growth under Add, so
// aggregating millions of queries keeps bounded memory.
const statsTightnessCap = 4096

// TightnessSample is one verified pair's filter-quality datum: how the
// lower bound and the branch distance compare to the exact edit distance
// the refine stage paid for.
type TightnessSample struct {
	// ID is the dataset position of the verified tree.
	ID int `json:"id"`
	// Bound is the lower bound the filter produced for the pair.
	Bound int `json:"bound"`
	// BDist is the raw binary branch distance (-1 when the filter has no
	// branch embedding).
	BDist int `json:"bdist"`
	// Exact is the exact tree edit distance (> 0; identical pairs carry no
	// tightness information).
	Exact int `json:"exact"`
	// Ratio is BDist/Exact — the empirical tightness, provably ≤ the
	// filter's Factor.
	Ratio float64 `json:"ratio"`
}

// Funnel counts the trees each tier of the bound cascade pruned, in the
// order the tiers run: a tree is charged to the first tier whose bound
// rules it out — exceeds tau for a range query, the final k-th distance
// for k-NN — so the counts do not depend on how many bounds a k-NN query
// got around to tightening, nor on the queries running beside it (each
// runs on one goroutine; concurrent queries share only the pools). The
// five sum to Dataset − Candidates.
type Funnel struct {
	// Size counts trees pruned on ||q|−|t|| alone.
	Size int `json:"size"`
	// BDist counts trees that passed the size tier and were pruned on
	// ⌈BDist/Factor⌉.
	BDist int `json:"bdist"`
	// Label counts trees that passed both and were pruned on the
	// label-histogram bound ⌈L1/2⌉ of a swept segment.
	Label int `json:"label"`
	// Positional counts trees that passed the three cheap tiers and were
	// pruned by the filter's full bound, the positional one.
	Positional int `json:"positional"`
	// Sequence counts trees that passed every bound of the filter and
	// were pruned by Guha et al.'s sequence bound, read off the positional
	// BiBranch's profiles just before verification.
	Sequence int `json:"sequence"`
}

// add accumulates another funnel's counts.
func (f *Funnel) add(o Funnel) {
	f.Size += o.Size
	f.BDist += o.BDist
	f.Label += o.Label
	f.Positional += o.Positional
	f.Sequence += o.Sequence
}

// report sets the funnel on the span that timed the filter.
func (f Funnel) report(sp *obs.Span) {
	sp.SetInt("pruned_size", int64(f.Size))
	sp.SetInt("pruned_bdist", int64(f.BDist))
	sp.SetInt("pruned_label", int64(f.Label))
	sp.SetInt("pruned_positional", int64(f.Positional))
	sp.SetInt("pruned_sequence", int64(f.Sequence))
}

// BoundDist summarizes the distribution of each bounded tree's deciding
// bound: the bound of the cascade tier that pruned the tree, or its full
// bound if no tier did. The sequence tier, capped at the threshold, is
// left out: a tree it prunes counts with its full bound. Every value is a
// sound lower bound (a range query's, in the RangeBound sense); a tree
// pruned by a cheap tier never gets a positional value, so the
// distribution describes what the filter decided on, not how tight its
// best bound could have been.
type BoundDist struct {
	Computed int `json:"computed"` // trees bounded
	Min      int `json:"min"`
	P50      int `json:"p50"`
	P99      int `json:"p99"`
	Max      int `json:"max"`
}

// Explain is the per-query filter-quality analysis: what the filter let
// through, what the refine stage disproved, and how tight the bounds were.
// It is computed inside the engine (KNN/Range under WithExplain) so the CLI,
// the server and the offline analyzer all report identical numbers.
type Explain struct {
	// Op is "knn" or "range".
	Op string `json:"op"`
	// Filter is the index filter's name.
	Filter string `json:"filter"`
	// K is the k of a knn query (0 for range).
	K int `json:"k,omitempty"`
	// Tau is the radius of a range query (0 for knn).
	Tau int `json:"tau,omitempty"`
	// Dataset is the visible dataset size (tombstoned trees excluded).
	Dataset int `json:"dataset"`
	// Segments is how many storage segments (sealed segments plus the
	// memtable snapshot, when non-empty) the query fanned over.
	Segments int `json:"segments,omitempty"`
	// Candidates counts trees the filter could not prune: for a range
	// query, every tier's bound ≤ tau; for a k-NN query, every tier's
	// bound ≤ the final k-th distance (what any verification order must at
	// least consider).
	Candidates int `json:"candidates"`
	// Verified counts exact edit-distance computations.
	Verified int `json:"verified"`
	// FalsePositives counts verified candidates whose exact distance
	// failed the query predicate (range: > tau; knn: outside the final
	// result set).
	FalsePositives int `json:"false_positives"`
	// Results is the answer set size.
	Results int `json:"results"`
	// AccessedFraction is Verified/Dataset — the paper's quality measure.
	AccessedFraction float64 `json:"accessed_fraction"`
	// RefineAborted and PrecheckRejects break down how many of the
	// Verified attempts the bounded verifier cut short: DP early aborts
	// and rejections before the tree DP, by an O(n) pre-check or the
	// sequence bound (both zero under full refine).
	RefineAborted   int `json:"refine_aborted"`
	PrecheckRejects int `json:"precheck_rejects"`
	// DPCells is the dynamic-programming cells the refine stage computed;
	// DPCellsFull is what full verification of the same pairs would have
	// cost.
	DPCells     int64 `json:"dp_cells"`
	DPCellsFull int64 `json:"dp_cells_full"`
	// Pruned is the filter's funnel: trees eliminated per cascade tier.
	// Dataset − Pruned.Size − Pruned.BDist − Pruned.Label −
	// Pruned.Positional − Pruned.Sequence = Candidates.
	Pruned Funnel `json:"pruned"`
	// Bounds is the distribution of the trees' deciding bounds.
	Bounds BoundDist `json:"bounds"`
	// Tightness holds up to tightnessCap verified-pair samples, by tree id.
	Tightness []TightnessSample `json:"tightness,omitempty"`
	// TightnessLimit is the filter's proven worst-case ratio (0 when the
	// filter reports none); every sample's Ratio is ≤ it.
	TightnessLimit int `json:"tightness_limit,omitempty"`
	// FilterUS and RefineUS are the stage timings in microseconds.
	FilterUS int64 `json:"filter_us"`
	RefineUS int64 `json:"refine_us"`
}

// summarize sorts the trees' deciding bounds, in place, and summarizes
// their distribution; percentiles use the nearest-rank convention.
func summarize(bs []int) BoundDist {
	n := len(bs)
	if n == 0 {
		return BoundDist{}
	}
	sort.Ints(bs)
	return BoundDist{
		Computed: n,
		Min:      bs[0],
		P50:      bs[(n-1)/2],
		P99:      bs[(n-1)*99/100],
		Max:      bs[n-1],
	}
}

// sampleTightness records one verified pair into the always-on Stats
// sample set (capped) and, when ex is non-nil, the full EXPLAIN sample.
// The bounder addresses trees by segment-local position (local) while the
// sample reports the dataset id (gid). Pairs at exact distance 0 carry no
// ratio and are skipped; the sequential scan, which has no branch
// embedding, produces no samples.
func sampleTightness(b *biBranchBounder, st *Stats, ex *Explain, local, gid, bound, exact int) {
	if exact <= 0 || b == nil {
		return
	}
	full := ex != nil && len(ex.Tightness) < tightnessCap
	brief := len(st.Tightness) < tightnessCap
	if !full && !brief {
		return
	}
	d := b.BDist(local)
	ratio := float64(d) / float64(exact)
	if brief {
		st.Tightness = append(st.Tightness, ratio)
	}
	if full {
		ex.Tightness = append(ex.Tightness, TightnessSample{
			ID: gid, Bound: bound, BDist: d, Exact: exact, Ratio: ratio,
		})
	}
}

// finish fills the derived Explain fields from the final stats.
func (e *Explain) finish(f *BiBranch, st Stats) {
	if e == nil {
		return
	}
	e.Filter = f.Name()
	e.Dataset = st.Dataset
	e.Candidates = st.Candidates
	e.Verified = st.Verified
	e.FalsePositives = st.FalsePositives
	e.Results = st.Results
	e.Pruned = st.Pruned
	e.AccessedFraction = st.AccessedFraction()
	e.RefineAborted = st.RefineAborted
	e.PrecheckRejects = st.PrecheckRejects
	e.DPCells = st.DPCells
	e.DPCellsFull = st.DPCellsFull
	e.FilterUS = st.FilterTime.Microseconds()
	e.RefineUS = st.RefineTime.Microseconds()
	e.TightnessLimit = f.Factor()
	slices.SortFunc(e.Tightness, func(a, b TightnessSample) int { return a.ID - b.ID })
}

// String renders the analysis for terminals (cmd/treesim -explain).
func (e *Explain) String() string {
	var b strings.Builder
	param := ""
	switch e.Op {
	case "knn":
		param = fmt.Sprintf(" k=%d", e.K)
	case "range":
		param = fmt.Sprintf(" tau=%d", e.Tau)
	}
	fmt.Fprintf(&b, "explain: %s%s filter=%s dataset=%d\n", e.Op, param, e.Filter, e.Dataset)
	fmt.Fprintf(&b, "  candidates=%d verified=%d false_positives=%d results=%d accessed=%.4f\n",
		e.Candidates, e.Verified, e.FalsePositives, e.Results, e.AccessedFraction)
	afterSize := e.Dataset - e.Pruned.Size
	afterBDist := afterSize - e.Pruned.BDist
	afterLabel := afterBDist - e.Pruned.Label
	afterPositional := afterLabel - e.Pruned.Positional
	fmt.Fprintf(&b, "  funnel: %d -size-> %d -bdist-> %d -label-> %d -positional-> %d -sequence-> %d\n",
		e.Dataset, afterSize, afterBDist, afterLabel, afterPositional, afterPositional-e.Pruned.Sequence)
	fmt.Fprintf(&b, "  bounds: computed=%d min=%d p50=%d p99=%d max=%d\n",
		e.Bounds.Computed, e.Bounds.Min, e.Bounds.P50, e.Bounds.P99, e.Bounds.Max)
	fmt.Fprintf(&b, "  refine: aborted=%d precheck_rejects=%d dp_cells=%d/%d\n",
		e.RefineAborted, e.PrecheckRejects, e.DPCells, e.DPCellsFull)
	fmt.Fprintf(&b, "  stages: filter=%dµs refine=%dµs\n", e.FilterUS, e.RefineUS)
	if len(e.Tightness) > 0 {
		limit := ""
		if e.TightnessLimit > 0 {
			limit = fmt.Sprintf(" (proven ≤ %d)", e.TightnessLimit)
		}
		fmt.Fprintf(&b, "  tightness BDist/EDist%s:", limit)
		for _, s := range e.Tightness {
			fmt.Fprintf(&b, " %.2f", s.Ratio)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
