package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"treesim/internal/obs"
	"treesim/internal/search"
	"treesim/internal/segstore"
)

// Metrics is the server's instrumentation, declared once in newMetrics:
// every family GET /metrics serves — as JSON by default, as Prometheus
// text with ?format=prom — is one registration there, next to where its
// value comes from. Counters and histograms the request path updates are
// fields here; everything another component already tracks (index, store,
// WAL, degraded mode, runtime, recorder) is read from
// that component at scrape time.
type Metrics struct {
	reg *obs.Registry

	// Per-endpoint families; instrument binds one endpointStats per route.
	requests, errors, rejected, timeouts *obs.CounterVec
	latency                              *obs.HistogramVec

	// The paper's quality measure and the funnel around it, summed over
	// every similarity query served.
	queryMu  sync.Mutex
	total    search.Stats
	accessed *obs.Histogram // per-query accessed fraction: one observation per query

	// Duration histograms in seconds. WALAppend/WALFsync are handed to the
	// write-ahead log at open.
	WALAppend, WALFsync      *obs.Histogram
	QueryFilter, QueryRefine *obs.Histogram
	SnapshotWrite            *obs.Histogram
	Compaction               *obs.Histogram

	// Filter-quality histograms, fed from every similarity query; Tightness
	// is the evidence from live traffic for the paper's ≤ 4(q−1)+1 bound.
	FilterCandidates   *obs.Histogram
	FalsePositiveRatio *obs.Histogram
	Tightness          *obs.Histogram
	DPCellsPerVerify   *obs.Histogram
}

// latencyBounds are the request-latency bucket upper bounds, in seconds.
var latencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// accessedBounds bucket the per-query accessed fraction.
var accessedBounds = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}

// candidateBounds bucket the per-query candidate count.
var candidateBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 1000, 10000}

// ratioBounds bucket fractions in [0,1] (false-positive ratio).
var ratioBounds = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

// tightnessBounds bucket BDist/EDist ratios; the paper bounds them by
// Factor(q) = 4(q−1)+1, i.e. 5 at the default q=2.
var tightnessBounds = []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}

// dpCellsBounds bucket the mean DP cells per verification.
var dpCellsBounds = []float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// from adapts a component's stats call and a field of its result to the
// func() float64 a func-gauge or func-counter reads at scrape time.
func from[S any](read func() S, pick func(S) float64) func() float64 {
	return func() float64 { return pick(read()) }
}

func load(c *atomic.Uint64) func() float64 {
	return func() float64 { return float64(c.Load()) }
}

// newMetrics declares every family of s's /metrics. s.recorder must be
// set (or left nil: a disabled recorder reads as zero); s.wal may appear
// later, it is read per scrape.
func newMetrics(s *Server) *Metrics {
	reg := obs.NewRegistry("treesim_")
	m := &Metrics{reg: reg}
	start := time.Now()

	reg.LabelledFunc("treesim_build_info", "gauge", "Constant 1, labeled with the binary's build identity.", func() []obs.Sample {
		bi := Build()
		return []obs.Sample{{Value: 1, Labels: obs.Labels{
			"go_version": bi.GoVersion,
			"revision":   bi.Revision,
			"dirty":      strconv.FormatBool(bi.Dirty),
		}}}
	})
	reg.GaugeFunc("treesim_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeFunc("treesim_index_size", "Id high-water mark of the live index (deleted ids stay burned).",
		func() float64 { return float64(s.ix.Size()) })
	store := func(pick func(segstore.Stats) float64) func() float64 { return from(s.ix.StoreStats, pick) }
	reg.GaugeFunc("treesim_index_live", "Visible trees in the live index (tombstoned excluded).",
		store(func(st segstore.Stats) float64 { return float64(st.Live) }))
	reg.LabelledFunc("treesim_index_info", "gauge", "Constant 1, labeled with the active filter.", func() []obs.Sample {
		return []obs.Sample{{Value: 1, Labels: obs.Labels{"filter": s.ix.Filter().Name()}}}
	})
	reg.GaugeFunc("treesim_store_epoch", "Storage-engine logical-state counter; advances on every insert, delete, seal and compaction.",
		store(func(st segstore.Stats) float64 { return float64(st.Epoch) }))
	reg.GaugeFunc("treesim_store_segments", "Sealed immutable segments (memtable excluded).",
		store(func(st segstore.Stats) float64 { return float64(st.Segments) }))
	reg.GaugeFunc("treesim_store_memtable_trees", "Trees in the mutable memtable segment.",
		store(func(st segstore.Stats) float64 { return float64(st.MemtableLen) }))
	reg.GaugeFunc("treesim_store_tombstones", "Unresolved tombstones (resolved at the next compaction).",
		store(func(st segstore.Stats) float64 { return float64(st.Tombstones) }))
	reg.CounterFunc("treesim_store_seals_total", "Memtable seals since process start.",
		store(func(st segstore.Stats) float64 { return float64(st.Seals) }))
	reg.CounterFunc("treesim_store_compactions_total", "Completed compactions since process start.",
		store(func(st segstore.Stats) float64 { return float64(st.Compactions) }))
	reg.GaugeFunc("treesim_inflight_requests", "Query requests currently admitted.",
		func() float64 { return float64(s.sem.inflight()) })
	reg.GaugeFunc("treesim_max_inflight_requests", "Admission limit for concurrent queries.",
		func() float64 { return float64(cap(s.sem)) })
	reg.CounterFunc("treesim_inserts_total", "Accepted tree inserts.", load(&s.inserts))
	reg.CounterFunc("treesim_deletes_total", "Accepted tree deletes.", load(&s.deletes))
	reg.CounterFunc("treesim_snapshots_total", "Snapshots published.", load(&s.snapshots))
	reg.CounterFunc("treesim_wal_records_total", "WAL records appended by this process.", load(&s.walRecords))
	reg.GaugeFunc("treesim_wal_replayed_records", "WAL records replayed during startup recovery.", load(&s.walReplayed))
	reg.CounterFunc("treesim_snapshot_crc_failures_total", "Snapshots that failed checksum self-verification.", load(&s.snapCRCFail))
	reg.GaugeFunc("treesim_wal_segments", "Segment files in the live write-ahead log.", func() float64 {
		if s.wal == nil {
			return 0
		}
		return float64(s.wal.Segments())
	})
	reg.GaugeFunc("treesim_wal_bytes", "Total valid bytes across live WAL segments; growth means snapshots are falling behind the write rate.", func() float64 {
		if s.wal == nil {
			return 0
		}
		return float64(s.wal.Bytes())
	})
	reg.LabelledFunc("treesim_degraded", "gauge", "1 while the server is in degraded read-only mode (durable writes failing), labeled with the entry reason.", func() []obs.Sample {
		if deg, reason := s.degradedState(); deg {
			return []obs.Sample{{Value: 1, Labels: obs.Labels{"reason": reason}}}
		}
		return []obs.Sample{{Value: 0, Labels: obs.Labels{}}}
	})
	reg.CounterFunc("treesim_degraded_total", "Times the server entered degraded read-only mode.", load(&s.degradedTotal))

	// Runtime telemetry, sampled from runtime/metrics per scrape.
	rt := func(pick func(obs.RuntimeStats) float64) func() float64 { return from(obs.ReadRuntime, pick) }
	reg.GaugeFunc("treesim_goroutines", "Live goroutines.",
		rt(func(r obs.RuntimeStats) float64 { return float64(r.Goroutines) }))
	reg.GaugeFunc("treesim_heap_bytes", "Bytes of live heap objects.",
		rt(func(r obs.RuntimeStats) float64 { return float64(r.HeapBytes) }))
	reg.CounterFunc("treesim_gc_cycles_total", "Completed GC cycles.",
		rt(func(r obs.RuntimeStats) float64 { return float64(r.GCCycles) }))
	reg.HistogramFunc("treesim_gc_pause_seconds", "Stop-the-world GC pause distribution since process start.",
		func() obs.HistogramSnapshot { return obs.ReadRuntime().GCPause })
	reg.HistogramFunc("treesim_sched_latency_seconds", "Scheduler latency: time goroutines spend runnable before running.",
		func() obs.HistogramSnapshot { return obs.ReadRuntime().SchedLatency })

	// Flight recorder.
	rec := func(pick func(obs.RecorderStats) float64) func() float64 { return from(s.recorder.Stats, pick) }
	reg.LabelledFunc("treesim_trace_retained", "gauge", "Traces currently retained in the flight recorder, by class.", func() []obs.Sample {
		st := s.recorder.Stats()
		return []obs.Sample{
			{Value: float64(st.Errors), Labels: obs.Labels{"class": "error"}},
			{Value: float64(st.Slow), Labels: obs.Labels{"class": "slow"}},
			{Value: float64(st.Baseline), Labels: obs.Labels{"class": "baseline"}},
		}
	})
	reg.CounterFunc("treesim_trace_offered_total", "Completed requests offered to the flight recorder.",
		rec(func(st obs.RecorderStats) float64 { return float64(st.Offered) }))
	reg.CounterFunc("treesim_trace_dropped_total", "Offers dropped without snapshotting (normal requests losing the reservoir draw).",
		rec(func(st obs.RecorderStats) float64 { return float64(st.Dropped) }))
	reg.GaugeFunc("treesim_trace_threshold_seconds", "Adaptive slow-trace retention threshold.",
		rec(func(st obs.RecorderStats) float64 { return float64(st.ThresholdUS) / 1e6 }))

	// Per-endpoint request counters and latency. A scrape reads families in
	// declaration order and Observe counts the request before its class, so
	// with the classes declared first every scrape has requests ≥ errors +
	// rejected + timeouts per endpoint.
	m.errors = reg.CounterVec("treesim_http_errors_total", "5xx responses (excluding 504), by endpoint.", "endpoint")
	m.rejected = reg.CounterVec("treesim_http_rejected_total", "429 admission rejections, by endpoint.", "endpoint")
	m.timeouts = reg.CounterVec("treesim_http_timeouts_total", "504 query-deadline responses, by endpoint.", "endpoint")
	m.requests = reg.CounterVec("treesim_http_requests_total", "Requests finished, by endpoint.", "endpoint")
	m.latency = reg.HistogramVec("treesim_http_request_duration_seconds", "Request latency, by endpoint.", "endpoint", latencyBounds)

	total := func(pick func(*search.Stats) float64) func() float64 {
		return func() float64 {
			m.queryMu.Lock()
			defer m.queryMu.Unlock()
			return pick(&m.total)
		}
	}
	reg.CounterFunc("treesim_queries_total", "Similarity queries served (batch inner queries counted individually).",
		func() float64 { return float64(m.accessed.Snapshot().Count) })
	reg.CounterFunc("treesim_query_verified_total", "Exact edit-distance verifications across all queries.",
		total(func(t *search.Stats) float64 { return float64(t.Verified) }))
	reg.CounterFunc("treesim_query_results_total", "Result rows returned across all queries.",
		total(func(t *search.Stats) float64 { return float64(t.Results) }))
	reg.CounterFunc("treesim_query_candidates_total", "Filter candidates across all queries.",
		total(func(t *search.Stats) float64 { return float64(t.Candidates) }))
	reg.LabelledFunc("treesim_filter_pruned_total", "counter",
		"Trees the filter pruned, by the bound-cascade tier that ruled them out; with treesim_query_candidates_total it accounts for every tree a query saw.",
		func() []obs.Sample {
			m.queryMu.Lock()
			p := m.total.Pruned
			m.queryMu.Unlock()
			return []obs.Sample{
				{Value: float64(p.Size), Labels: obs.Labels{"tier": "size"}},
				{Value: float64(p.BDist), Labels: obs.Labels{"tier": "bdist"}},
				{Value: float64(p.Label), Labels: obs.Labels{"tier": "label"}},
				{Value: float64(p.Positional), Labels: obs.Labels{"tier": "positional"}},
				{Value: float64(p.Sequence), Labels: obs.Labels{"tier": "sequence"}},
			}
		})
	reg.CounterFunc("treesim_query_false_positives_total", "Verified candidates whose exact distance failed the predicate, across all queries.",
		total(func(t *search.Stats) float64 { return float64(t.FalsePositives) }))
	reg.CounterFunc("treesim_refine_aborted_total", "Verifications the band-limited DP abandoned after proving the distance exceeds the cutoff.",
		total(func(t *search.Stats) float64 { return float64(t.RefineAborted) }))
	reg.CounterFunc("treesim_refine_precheck_rejects_total", "Verifications rejected before the tree DP, by an O(n) pre-check (size/height/label-histogram deltas) or the sequence bound.",
		total(func(t *search.Stats) float64 { return float64(t.PrecheckRejects) }))
	reg.CounterFunc("treesim_refine_dp_cells_total", "Dynamic-programming cells actually touched across all verifications.",
		total(func(t *search.Stats) float64 { return float64(t.DPCells) }))
	reg.CounterFunc("treesim_refine_dp_cells_full_total", "Dynamic-programming cells a full (uncut) verification of the same pairs would touch.",
		total(func(t *search.Stats) float64 { return float64(t.DPCellsFull) }))
	m.accessed = reg.Histogram("treesim_query_accessed_fraction",
		"Per-query accessed fraction: share of the dataset verified with an exact distance (the paper's quality measure).", accessedBounds)

	m.FilterCandidates = reg.Histogram("treesim_filter_candidates",
		"Per-query candidate count the filter let through to verification.", candidateBounds)
	m.FalsePositiveRatio = reg.Histogram("treesim_filter_false_positive_ratio",
		"Per-query share of verified candidates rejected by the exact distance (queries that verified at least one).", ratioBounds)
	m.Tightness = reg.Histogram("treesim_filter_tightness_ratio",
		"BDist/EDist over verified pairs; the paper bounds it by 4(q-1)+1.", tightnessBounds)
	m.DPCellsPerVerify = reg.Histogram("treesim_refine_dp_cells_per_verification",
		"Per-query mean DP cells paid per verification under the bounded refine engine.", dpCellsBounds)

	m.QueryFilter = reg.Histogram("treesim_query_filter_seconds", "Per-query filter-stage time (lower-bound computation).", obs.DefDurationBuckets)
	m.QueryRefine = reg.Histogram("treesim_query_refine_seconds", "Per-query refine-stage time (exact edit distances).", obs.DefDurationBuckets)
	m.WALAppend = reg.Histogram("treesim_wal_append_seconds", "WAL record append time, write plus policy fsync.", obs.DefDurationBuckets)
	m.WALFsync = reg.Histogram("treesim_wal_fsync_seconds", "WAL fsync time per flush.", obs.DefDurationBuckets)
	m.SnapshotWrite = reg.Histogram("treesim_snapshot_write_seconds", "Snapshot publication time (write, sync, verify, rename).", obs.DefDurationBuckets)
	m.Compaction = reg.Histogram("treesim_compaction_seconds", "Segment compaction time (merge plus filter rebuild).", obs.DefDurationBuckets)
	return m
}

// endpointStats are one route's children of the per-endpoint families,
// resolved once when instrument registers the route.
type endpointStats struct {
	requests, errors, rejected, timeouts *atomic.Uint64
	latency                              *obs.Histogram
}

func (m *Metrics) endpoint(name string) *endpointStats {
	return &endpointStats{
		requests: m.requests.With(name),
		errors:   m.errors.With(name),
		rejected: m.rejected.With(name),
		timeouts: m.timeouts.With(name),
		latency:  m.latency.With(name),
	}
}

// Observe records one finished request: a handful of atomic adds, no
// lock, no lookup, no allocation.
func (e *endpointStats) Observe(status int, d time.Duration) {
	e.requests.Add(1)
	switch {
	case status == 429:
		e.rejected.Add(1)
	case status == 504:
		e.timeouts.Add(1)
	case status >= 500:
		e.errors.Add(1)
	}
	e.latency.ObserveDuration(d)
}

// ObserveQuery folds one similarity query's stats into the aggregate.
// Batch requests call it once per inner query.
func (m *Metrics) ObserveQuery(s search.Stats) {
	m.QueryFilter.ObserveDuration(s.FilterTime)
	m.QueryRefine.ObserveDuration(s.RefineTime)
	m.FilterCandidates.Observe(float64(s.Candidates))
	if s.Verified > 0 {
		m.FalsePositiveRatio.Observe(s.FalsePositiveRate())
		m.DPCellsPerVerify.Observe(float64(s.DPCells) / float64(s.Verified))
	}
	for _, t := range s.Tightness {
		m.Tightness.Observe(t)
	}
	m.accessed.Observe(s.AccessedFraction())
	s.Tightness = nil // observed into the histogram above, not summed into total
	m.queryMu.Lock()
	m.total.Add(s)
	m.queryMu.Unlock()
}
