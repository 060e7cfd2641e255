package editdist

import "math"

// Functional options for the distance entry points, mirroring the style of
// search.NewIndex: Distance, DistanceWithin and Prepare take a variadic
// tail of Options selecting the cost model, the cutoff, and an optional
// metrics sink (which Prepare leaves to Within's argument). The zero
// configuration is the paper's: unit costs, no cutoff.

// noCutoff marks "no threshold": with this cutoff the entry points run the
// doubling search (bounded.go), or the plain Zhang–Shasha program under a
// model without a per-operation minimum. Any cutoff at or above
// `unreachable` (math.MaxInt/4) is treated the same way — it cannot prune
// anything a real dataset produces, and keeping the bounded machinery away
// from the int ceiling avoids overflow in the band arithmetic.
const noCutoff = math.MaxInt

// config collects what the options select.
type config struct {
	cost    CostModel
	cutoff  int
	metrics *Metrics
}

// Option configures one Distance, DistanceWithin or Prepare call.
type Option interface {
	apply(*config)
}

// option adapts a plain function to Option.
type option func(*config)

func (f option) apply(c *config) { f(c) }

// applyOptions folds the options over the defaults (unit costs, no
// cutoff). Nil options are skipped.
func applyOptions(opts []Option) config {
	cfg := config{cost: UnitCost{}, cutoff: noCutoff}
	for _, o := range opts {
		if o == nil {
			continue
		}
		o.apply(&cfg)
	}
	return cfg
}

// WithCost sets the cost model (nil keeps the default unit costs).
func WithCost(m CostModel) Option {
	return option(func(c *config) {
		if m != nil {
			c.cost = m
		}
	})
}

// WithCutoff bounds the computation at cutoff: the result is exact
// whenever the true distance is ≤ cutoff, and otherwise is only guaranteed
// to exceed it. When several cutoffs apply (the option repeated, or
// combined with DistanceWithin's argument), the tightest wins. Use
// DistanceWithin to observe which side of the cutoff the pair landed on.
func WithCutoff(cutoff int) Option {
	return option(func(c *config) {
		if cutoff < c.cutoff {
			c.cutoff = cutoff
		}
	})
}

// Metrics reports what one bounded (or full) distance computation cost —
// the refine-stage accounting the search engine aggregates per query.
type Metrics struct {
	// Cells is how many forest-distance DP cells were actually computed,
	// summed over every kernel run of the call. A bounded call runs the
	// kernel at most once, so Cells ≤ FullCells. A call with no cutoff runs
	// the doubling search: at most ⌊log₂((|q|+|t|)/8)⌋ + 2 banded runs, none
	// above FullCells, and the band-off run only if they all fail — so
	// Cells ≤ (⌊log₂((|q|+|t|)/8)⌋ + 3)·FullCells, and exactly FullCells
	// under a model without a per-operation minimum.
	Cells int64
	// FullCells is how many cells the band-off program computes for the
	// same pair — the denominator for "DP work saved".
	FullCells int64
	// Precheck reports that the distance was proven to exceed the cutoff
	// before the tree DP ran: by an O(n) pre-check (size, height, or
	// label-histogram delta), by the sequence bound (the postorder or
	// preorder label sequences further apart than the band) or by the
	// certificate's floor (a walk that exhausted the optimal alignments
	// at the band; see certify.go). An exact answer reports it false.
	Precheck bool
	// Certified reports that the exact distance was proven without the
	// tree DP: an optimal alignment of the postorder, or of the preorder,
	// label sequences was also a Tai mapping (UnitCost only; see
	// certify.go), so Cells is 0.
	Certified bool
	// Aborted reports that the DP proved the distance exceeds the cutoff
	// without computing it exactly (band restriction and/or frontier-row
	// early abandoning). An exact answer reports it false, whatever runs of
	// the search failed on the way.
	Aborted bool
}

// WithMetrics directs the per-call cost accounting into *m, which is
// reset at the start of the call. Each call needs its own Metrics value —
// concurrent calls must not share one.
func WithMetrics(m *Metrics) Option {
	return option(func(c *config) { c.metrics = m })
}
