package search

import "treesim/internal/editdist"

// Functional options for the index and query surface. NewIndex takes
// IndexOptions; KNN and Range take QueryOptions. A *BiBranch is itself an
// IndexOption, the nil one included, so the common case reads
// NewIndex(ts, NewBiBranch()) with no wrapper.

// indexConfig collects what the index options select.
type indexConfig struct {
	filter       *BiBranch
	cost         editdist.CostModel
	memtableSize int
	compactAfter int
}

// IndexOption configures NewIndex and LoadIndex.
type IndexOption interface {
	applyIndex(*indexConfig)
}

// indexOption adapts a plain function to IndexOption.
type indexOption func(*indexConfig)

func (f indexOption) applyIndex(c *indexConfig) { f(c) }

// applyIndexOpts folds the options over the defaults. Nil options are
// skipped, so NewIndex(ts, nil) keeps its historical meaning: no filter,
// i.e. the sequential scan. The filter's bounds count unit operations,
// which bounds the distance from below only when no operation costs less
// than 1: under a cost model that does not report such a minimum the
// filter is nil, whose bound 0 is sound for any non-negative costs.
func applyIndexOpts(opts []IndexOption) indexConfig {
	cfg := indexConfig{cost: defaultCost()}
	for _, o := range opts {
		if o == nil {
			continue
		}
		o.applyIndex(&cfg)
	}
	if cfg.sequential() {
		cfg.filter = nil
	}
	return cfg
}

// sequential reports whether the cost model forces the sequential scan.
func (c indexConfig) sequential() bool { return editdist.MinOpCost(c.cost) < 1 }

// WithCostModel sets the refine stage's edit cost model. The filters'
// lower bounds are proved for unit costs, so they hold for a custom model
// only when every operation costs at least 1: a model that says so
// (editdist.MinOpCoster reporting ≥ 1) keeps the configured filter; under
// any other model the index answers by sequential scan (its filter is
// nil), which is exact for any non-negative costs.
func WithCostModel(m editdist.CostModel) IndexOption {
	return indexOption(func(c *indexConfig) {
		if m != nil {
			c.cost = m
		}
	})
}

// WithMemtableSize sets how many inserts the mutable memtable segment
// accepts before it is sealed into an immutable segment (0 means the
// store default, segstore.DefaultMemtableSize). Smaller memtables mean
// more segments between compactions.
func WithMemtableSize(n int) IndexOption {
	return indexOption(func(c *indexConfig) { c.memtableSize = n })
}

// WithCompactionThreshold sets how many sealed segments accumulate before
// a seal triggers a background compaction (0 means the store default,
// segstore.DefaultCompactAfter; negative disables automatic compaction —
// call Index.Compact explicitly).
func WithCompactionThreshold(n int) IndexOption {
	return indexOption(func(c *indexConfig) { c.compactAfter = n })
}

// applyIndex makes a filter, the nil one included, its own index option.
func (f *BiBranch) applyIndex(c *indexConfig) { c.filter = f }

// queryConfig collects what the query options select.
type queryConfig struct {
	explain **Explain
}

// QueryOption configures one KNN or Range call.
type QueryOption interface {
	applyQuery(*queryConfig)
}

// queryOption adapts a plain function to QueryOption.
type queryOption func(*queryConfig)

func (f queryOption) applyQuery(c *queryConfig) { f(c) }

// applyQueryOpts folds the options, skipping nils.
func applyQueryOpts(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range opts {
		if o == nil {
			continue
		}
		o.applyQuery(&cfg)
	}
	return cfg
}

// WithExplain asks the query to produce its per-query filter-quality
// analysis into *dst. *dst is set only when the query completes (nil on
// error); the results are identical with or without the option — the
// analysis costs one extra O(n) pass over already-computed bounds.
func WithExplain(dst **Explain) QueryOption {
	return queryOption(func(c *queryConfig) { c.explain = dst })
}
