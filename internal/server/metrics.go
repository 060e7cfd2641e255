package server

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"treesim/internal/obs"
	"treesim/internal/search"
)

// Metrics is the server's expvar-style instrumentation: per-endpoint
// request counters and latency histograms, plus the paper's own quality
// measure aggregated over every similarity query served — the accessed
// fraction (share of the dataset verified with an exact edit distance,
// from search.Stats). Everything is rendered as one JSON document at
// GET /metrics, or as Prometheus text exposition with ?format=prom (see
// prom.go).
type Metrics struct {
	start time.Time

	mu        sync.Mutex
	endpoints map[string]*endpointStats
	query     queryStats

	// Duration histograms in seconds, backed by internal/obs (internally
	// atomic — observed outside mu). WALAppend/WALFsync are handed to the
	// write-ahead log at open; QueryFilter/QueryRefine split each
	// similarity query into the paper's two stages; SnapshotWrite times
	// whole snapshot publications.
	WALAppend     *obs.Histogram
	WALFsync      *obs.Histogram
	QueryFilter   *obs.Histogram
	QueryRefine   *obs.Histogram
	SnapshotWrite *obs.Histogram
	// Compaction times each segment-merge of the storage engine (filter
	// rebuild included).
	Compaction *obs.Histogram

	// Filter-quality histograms, fed from every similarity query.
	// FilterCandidates buckets the per-query candidate count the filter
	// let through; FalsePositiveRatio the share of verified candidates the
	// exact distance then rejected (only queries that verified something).
	// Tightness is a rolling (bounded-memory, ~10 min window) histogram of
	// BDist/EDist ratios over verified pairs — live evidence for the
	// paper's ≤ 4(q−1)+1 bound, from recent traffic rather than since
	// process start.
	FilterCandidates   *obs.Histogram
	FalsePositiveRatio *obs.Histogram
	Tightness          *obs.RollingHistogram

	// DPCellsPerVerify buckets, per query, the mean dynamic-programming
	// cells paid per verification — the bounded refine engine's work
	// gauge (a full Zhang–Shasha verification of two ~30-node trees costs
	// thousands of cells; pre-checks and early aborts pull the mean down).
	DPCellsPerVerify *obs.Histogram
}

// latencyBounds are the histogram bucket upper bounds.
var latencyBounds = []time.Duration{
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
}

// accessedBounds bucket the per-query accessed fraction.
var accessedBounds = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}

// candidateBounds bucket the per-query candidate count.
var candidateBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 1000, 10000}

// ratioBounds bucket fractions in [0,1] (false-positive ratio).
var ratioBounds = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

// tightnessBounds bucket BDist/EDist ratios; the paper bounds them by
// Factor(q) = 4(q−1)+1, i.e. 5 at the default q=2.
var tightnessBounds = []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}

// tightnessWindow is the rolling histogram's span (10 slots inside it).
const tightnessWindow = 10 * time.Minute

// dpCellsBounds bucket the mean DP cells per verification.
var dpCellsBounds = []float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144}

type endpointStats struct {
	requests uint64
	errors   uint64 // 5xx
	rejected uint64 // 429 (admission)
	timeouts uint64 // 504 (query deadline)
	buckets  []uint64
	sum      time.Duration
	// exemplars remembers, per latency bucket, the most recent request ID
	// that landed there — the bridge from a histogram spike to a concrete
	// retained trace (GET /debug/traces/{request_id}).
	exemplars *obs.Exemplars
}

type queryStats struct {
	count           uint64
	total           search.Stats
	accessedSum     float64 // sum of per-query accessed fractions (histogram _sum)
	accessedBuckets []uint64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:              time.Now(),
		endpoints:          make(map[string]*endpointStats),
		WALAppend:          obs.NewHistogram(obs.DefDurationBuckets),
		WALFsync:           obs.NewHistogram(obs.DefDurationBuckets),
		QueryFilter:        obs.NewHistogram(obs.DefDurationBuckets),
		QueryRefine:        obs.NewHistogram(obs.DefDurationBuckets),
		SnapshotWrite:      obs.NewHistogram(obs.DefDurationBuckets),
		Compaction:         obs.NewHistogram(obs.DefDurationBuckets),
		FilterCandidates:   obs.NewHistogram(candidateBounds),
		FalsePositiveRatio: obs.NewHistogram(ratioBounds),
		Tightness:          obs.NewRollingHistogram(tightnessBounds, tightnessWindow, 10),
		DPCellsPerVerify:   obs.NewHistogram(dpCellsBounds),
	}
}

// Observe records one finished request. rid (the request ID) becomes the
// latency bucket's exemplar; pass "" to skip exemplar tracking.
func (m *Metrics) Observe(endpoint string, status int, d time.Duration, rid string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[endpoint]
	if e == nil {
		e = &endpointStats{
			buckets:   make([]uint64, len(latencyBounds)+1),
			exemplars: obs.NewExemplars(latencySecondsBounds),
		}
		m.endpoints[endpoint] = e
	}
	e.requests++
	switch {
	case status == 429:
		e.rejected++
	case status == 504:
		e.timeouts++
	case status >= 500:
		e.errors++
	}
	e.sum += d
	i := sort.Search(len(latencyBounds), func(i int) bool { return d <= latencyBounds[i] })
	e.buckets[i]++
	if rid != "" {
		e.exemplars.Observe(d.Seconds(), rid)
	}
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
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.query.accessedBuckets == nil {
		m.query.accessedBuckets = make([]uint64, len(accessedBounds)+1)
	}
	m.query.count++
	m.query.total.Add(s)
	f := s.AccessedFraction()
	m.query.accessedSum += f
	i := sort.Search(len(accessedBounds), func(i int) bool { return f <= accessedBounds[i] })
	m.query.accessedBuckets[i]++
}

// EndpointSnapshot is the rendered state of one endpoint. Exemplars maps
// latency bucket labels to the most recent request that landed there.
type EndpointSnapshot struct {
	Requests  uint64                   `json:"requests"`
	Errors    uint64                   `json:"errors"`
	Rejected  uint64                   `json:"rejected"`
	Timeouts  uint64                   `json:"timeouts"`
	LatencyUS LatencySnapshot          `json:"latency_us"`
	Buckets   map[string]uint64        `json:"latency_buckets"`
	Exemplars map[string]*obs.Exemplar `json:"latency_exemplars,omitempty"`
}

// LatencySnapshot summarizes an endpoint's latency histogram.
type LatencySnapshot struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	Mean  int64  `json:"mean"`
}

// QuerySnapshot is the rendered aggregate over all similarity queries.
type QuerySnapshot struct {
	Count               uint64 `json:"count"`
	VerifiedTotal       int    `json:"verified_total"`
	DatasetTotal        int    `json:"dataset_total"`
	ResultsTotal        int    `json:"results_total"`
	CandidatesTotal     int    `json:"candidates_total"`
	FalsePositivesTotal int    `json:"false_positives_total"`
	// FilterPrunedTotal is the filter's funnel summed over all queries:
	// trees eliminated per bound-cascade tier (size, bdist, positional).
	// With CandidatesTotal it accounts for every tree of DatasetTotal.
	FilterPrunedTotal    search.Funnel `json:"filter_pruned_total"`
	MeanAccessedFraction float64       `json:"mean_accessed_fraction"`
	FalsePositiveRate    float64       `json:"false_positive_rate"`
	FilterMicrosTotal    int64         `json:"filter_us_total"`
	RefineMicrosTotal    int64         `json:"refine_us_total"`
	// Bounded-verification counters: of the verification attempts, how
	// many the refine stage cut short by a pre-check or an early DP abort,
	// and the DP cells actually computed vs. what full verification of the
	// same pairs would have cost.
	RefineAbortedTotal   int               `json:"refine_aborted_total"`
	PrecheckRejectsTotal int               `json:"precheck_rejects_total"`
	DPCellsTotal         int64             `json:"dp_cells_total"`
	DPCellsFullTotal     int64             `json:"dp_cells_full_total"`
	AccessedBuckets      map[string]uint64 `json:"accessed_fraction_buckets"`
}

// Snapshot is the full /metrics document; the server adds the live gauges
// (index size, in-flight requests) before marshaling.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// IndexSize is the id high-water mark; IndexLive the visible tree
	// count (tombstoned trees excluded).
	IndexSize   int    `json:"index_size"`
	IndexLive   int    `json:"index_live"`
	IndexFilter string `json:"index_filter"`
	InFlight    int    `json:"inflight"`
	MaxInFlight int    `json:"max_inflight"`
	Inserts     uint64 `json:"inserts_total"`
	Deletes     uint64 `json:"deletes_total"`
	Snapshots   uint64 `json:"snapshots_total"`
	// Storage-engine gauges: the epoch (logical-state counter; bumps on
	// every insert, delete, seal and compaction), sealed segment count,
	// memtable fill, unresolved tombstones, and the lifetime seal and
	// compaction counters.
	StoreEpoch       uint64 `json:"store_epoch"`
	StoreSegments    int    `json:"store_segments"`
	StoreMemtableLen int    `json:"store_memtable_len"`
	StoreTombstones  int    `json:"store_tombstones"`
	StoreSeals       uint64 `json:"store_seals_total"`
	StoreCompactions uint64 `json:"store_compactions_total"`
	// Durability gauges: WAL records appended by this process, records
	// replayed during startup recovery, the segment count and total bytes
	// of the live log (checkpoint health: growing bytes mean snapshots
	// are falling behind), and snapshots that failed their checksum
	// self-verification (and were therefore not published).
	WALRecords          uint64 `json:"wal_records_total"`
	WALReplayedRecords  uint64 `json:"wal_replayed_records"`
	WALSegments         int    `json:"wal_segments"`
	WALBytes            int64  `json:"wal_bytes"`
	SnapshotCRCFailures uint64 `json:"snapshot_crc_failures"`
	// Degraded read-only mode: 1 while durable writes are failing (with
	// the entry reason), plus a lifetime entry counter.
	Degraded       int                         `json:"degraded"`
	DegradedReason string                      `json:"degraded_reason,omitempty"`
	DegradedTotal  uint64                      `json:"degraded_total"`
	Endpoints      map[string]EndpointSnapshot `json:"endpoints"`
	Queries        QuerySnapshot               `json:"queries"`
	// Duration histograms (seconds): WAL durability cost, per-stage query
	// time, snapshot publication time.
	WALAppendSeconds     HistogramJSON `json:"wal_append_seconds"`
	WALFsyncSeconds      HistogramJSON `json:"wal_fsync_seconds"`
	QueryFilterSeconds   HistogramJSON `json:"query_filter_seconds"`
	QueryRefineSeconds   HistogramJSON `json:"query_refine_seconds"`
	SnapshotWriteSeconds HistogramJSON `json:"snapshot_write_seconds"`
	CompactionSeconds    HistogramJSON `json:"compaction_seconds"`
	// Filter-quality histograms: per-query candidate counts, per-query
	// false-positive ratios, and the rolling-window tightness ratios
	// (BDist/EDist over recently verified pairs).
	FilterCandidates   HistogramJSON `json:"filter_candidates"`
	FilterFPRatio      HistogramJSON `json:"filter_false_positive_ratio"`
	FilterTightness10m HistogramJSON `json:"filter_tightness_ratio_10m"`
	// Bounded-refine work histogram: per-query mean DP cells per
	// verification (the sum field is in cells, not seconds).
	RefineDPCells HistogramJSON `json:"refine_dp_cells_per_verification"`
	// Runtime telemetry (heap, goroutines, GC pauses, scheduler latency),
	// the per-endpoint SLO burn-rate table, and the flight recorder's
	// retention stats. Filled by the handler per scrape, like the gauges.
	Runtime       RuntimeJSON       `json:"runtime"`
	SLO           obs.SLOReport     `json:"slo"`
	TraceRecorder obs.RecorderStats `json:"trace_recorder"`
	// Trace-export pipeline health (queue depth, deliveries, drops) and
	// the tail profiler's capture counters. Filled by the handler per
	// scrape; zero when the subsystem is disabled.
	OTLPExport   OTLPExportJSON    `json:"otlp_export"`
	TailProfiler obs.ProfilerStats `json:"tail_profiler"`
}

// OTLPExportJSON renders obs.ExporterStats with the registry's
// histogram bucket-label convention for the batch latency.
type OTLPExportJSON struct {
	Queued              int           `json:"queued"`
	Offered             uint64        `json:"offered"`
	Batches             uint64        `json:"batches"`
	SentSpans           uint64        `json:"sent_spans"`
	Dropped             uint64        `json:"dropped"`
	Retries             uint64        `json:"retries"`
	BatchLatencySeconds HistogramJSON `json:"batch_latency_seconds"`
}

func otlpExportJSON(st obs.ExporterStats) OTLPExportJSON {
	return OTLPExportJSON{
		Queued:              st.Queued,
		Offered:             st.Offered,
		Batches:             st.Batches,
		SentSpans:           st.SentSpans,
		Dropped:             st.Dropped,
		Retries:             st.Retries,
		BatchLatencySeconds: histogramSnapshotJSON(st.BatchLatency),
	}
}

// RuntimeJSON renders obs.RuntimeStats with the registry's histogram
// bucket-label convention.
type RuntimeJSON struct {
	HeapBytes           uint64        `json:"heap_bytes"`
	Goroutines          uint64        `json:"goroutines"`
	GCCycles            uint64        `json:"gc_cycles"`
	GCPauseSeconds      HistogramJSON `json:"gc_pause_seconds"`
	SchedLatencySeconds HistogramJSON `json:"sched_latency_seconds"`
}

func runtimeJSON(rs obs.RuntimeStats) RuntimeJSON {
	return RuntimeJSON{
		HeapBytes:           rs.HeapBytes,
		Goroutines:          rs.Goroutines,
		GCCycles:            rs.GCCycles,
		GCPauseSeconds:      histogramSnapshotJSON(rs.GCPause),
		SchedLatencySeconds: histogramSnapshotJSON(rs.SchedLatency),
	}
}

// HistogramJSON is the JSON rendering of an obs.Histogram: bucket labels
// follow the same le_<seconds> convention as the endpoint latency buckets.
type HistogramJSON struct {
	Count      uint64            `json:"count"`
	SumSeconds float64           `json:"sum_seconds"`
	Buckets    map[string]uint64 `json:"buckets"`
}

func histogramJSON(h *obs.Histogram) HistogramJSON {
	return histogramSnapshotJSON(h.Snapshot())
}

func histogramSnapshotJSON(s obs.HistogramSnapshot) HistogramJSON {
	out := HistogramJSON{Count: s.Count, SumSeconds: s.Sum, Buckets: make(map[string]uint64, len(s.Counts))}
	for i, c := range s.Counts {
		if i < len(s.Bounds) {
			out.Buckets[bucketLabel(s.Bounds[i])] = c
		} else {
			out.Buckets["le_inf"] = c
		}
	}
	return out
}

// Snapshot renders the counters; the caller fills the gauge fields.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Endpoints:     make(map[string]EndpointSnapshot, len(m.endpoints)),
	}
	for name, e := range m.endpoints {
		snap := EndpointSnapshot{
			Requests: e.requests,
			Errors:   e.errors,
			Rejected: e.rejected,
			Timeouts: e.timeouts,
			Buckets:  make(map[string]uint64, len(e.buckets)),
			LatencyUS: LatencySnapshot{
				Count: e.requests,
				Sum:   e.sum.Microseconds(),
			},
		}
		if e.requests > 0 {
			snap.LatencyUS.Mean = e.sum.Microseconds() / int64(e.requests)
		}
		for i, c := range e.buckets {
			snap.Buckets[latencyBucketLabel(i)] = c
		}
		for i, ex := range e.exemplars.Snapshot() {
			if ex == nil {
				continue
			}
			if snap.Exemplars == nil {
				snap.Exemplars = make(map[string]*obs.Exemplar)
			}
			snap.Exemplars[latencyBucketLabel(i)] = ex
		}
		out.Endpoints[name] = snap
	}
	q := m.query
	out.Queries = QuerySnapshot{
		Count:                q.count,
		VerifiedTotal:        q.total.Verified,
		DatasetTotal:         q.total.Dataset,
		ResultsTotal:         q.total.Results,
		CandidatesTotal:      q.total.Candidates,
		FalsePositivesTotal:  q.total.FalsePositives,
		FilterPrunedTotal:    q.total.Pruned,
		FilterMicrosTotal:    q.total.FilterTime.Microseconds(),
		RefineMicrosTotal:    q.total.RefineTime.Microseconds(),
		RefineAbortedTotal:   q.total.RefineAborted,
		PrecheckRejectsTotal: q.total.PrecheckRejects,
		DPCellsTotal:         q.total.DPCells,
		DPCellsFullTotal:     q.total.DPCellsFull,
		AccessedBuckets:      make(map[string]uint64, len(q.accessedBuckets)),
	}
	out.Queries.MeanAccessedFraction = q.total.AccessedFraction()
	out.Queries.FalsePositiveRate = q.total.FalsePositiveRate()
	for i, c := range q.accessedBuckets {
		out.Queries.AccessedBuckets[accessedBucketLabel(i)] = c
	}
	out.WALAppendSeconds = histogramJSON(m.WALAppend)
	out.WALFsyncSeconds = histogramJSON(m.WALFsync)
	out.QueryFilterSeconds = histogramJSON(m.QueryFilter)
	out.QueryRefineSeconds = histogramJSON(m.QueryRefine)
	out.SnapshotWriteSeconds = histogramJSON(m.SnapshotWrite)
	out.CompactionSeconds = histogramJSON(m.Compaction)
	out.FilterCandidates = histogramJSON(m.FilterCandidates)
	out.FilterFPRatio = histogramJSON(m.FalsePositiveRatio)
	out.FilterTightness10m = histogramSnapshotJSON(m.Tightness.Snapshot())
	out.RefineDPCells = histogramJSON(m.DPCellsPerVerify)
	return out
}

// bucketLabel renders a histogram upper bound as a stable, parseable
// label: "le_" + the shortest exact decimal ("le_0.0025", "le_1"). Go
// duration strings ("le_2.5ms") are illegal as Prometheus label parts and
// unstable across formatting changes; everything numeric, in base units
// (seconds for time), parses back with strconv.ParseFloat — as does the
// "inf" of the overflow bucket.
func bucketLabel(bound float64) string {
	return "le_" + strconv.FormatFloat(bound, 'g', -1, 64)
}

func latencyBucketLabel(i int) string {
	if i == len(latencyBounds) {
		return "le_inf"
	}
	return bucketLabel(latencyBounds[i].Seconds())
}

func accessedBucketLabel(i int) string {
	if i == len(accessedBounds) {
		return "le_inf"
	}
	return bucketLabel(accessedBounds[i])
}
