package server

import (
	"io"
	"sort"
	"strconv"
	"time"

	"treesim/internal/obs"
)

// Prometheus text exposition of the /metrics registry. The JSON document
// (the default) and this rendering are two views of the same counters:
// the JSON form stays the human/debug view, this one is what a Prometheus
// server scrapes (Accept: text/plain or ?format=prom).

// latencySecondsBounds is latencyBounds converted once to seconds, the
// base unit both expositions use for bucket labels.
var latencySecondsBounds = func() []float64 {
	out := make([]float64, len(latencyBounds))
	for i, d := range latencyBounds {
		out[i] = d.Seconds()
	}
	return out
}()

// PromGauges carries the live values the server owns (the Metrics
// registry only holds counters); the caller fills it per scrape.
type PromGauges struct {
	IndexSize       int
	IndexLive       int
	IndexFilter     string
	InFlight        int
	MaxInFlight     int
	Inserts         uint64
	Deletes         uint64
	Snapshots       uint64
	WALRecords      uint64
	WALReplayed     uint64
	WALSegments     int
	WALBytes        int64
	SnapCRCFailures uint64
	Degraded        bool
	DegradedReason  string
	DegradedTotal   uint64
	// Storage-engine gauges and counters (see search.Index.StoreStats).
	StoreEpoch       uint64
	StoreSegments    int
	StoreMemtableLen int
	StoreTombstones  int
	StoreSeals       uint64
	StoreCompactions uint64
	// Runtime telemetry, the SLO burn-rate table, the flight recorder's
	// retention stats, and the trace-export/tail-profiler health —
	// sampled by the handler per scrape.
	Runtime  obs.RuntimeStats
	SLO      obs.SLOReport
	Recorder obs.RecorderStats
	Exporter obs.ExporterStats
	Profiler obs.ProfilerStats
}

// WriteProm renders the whole registry in Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headed families, per-endpoint
// counters and latency histograms, the accessed-fraction histogram, and
// the stage/WAL/snapshot duration histograms.
func (m *Metrics) WriteProm(w io.Writer, g PromGauges) error {
	pw := obs.NewPromWriter(w)

	bi := Build()
	pw.Family("treesim_build_info", "gauge", "Constant 1, labeled with the binary's build identity.").
		Sample(obs.Labels{
			"go_version": bi.GoVersion,
			"revision":   bi.Revision,
			"dirty":      strconv.FormatBool(bi.Dirty),
		}, 1)
	pw.Family("treesim_uptime_seconds", "gauge", "Seconds since the server started.").
		Sample(nil, time.Since(m.start).Seconds())
	pw.Family("treesim_index_size", "gauge", "Id high-water mark of the live index (deleted ids stay burned).").
		Sample(nil, float64(g.IndexSize))
	pw.Family("treesim_index_live", "gauge", "Visible trees in the live index (tombstoned excluded).").
		Sample(nil, float64(g.IndexLive))
	pw.Family("treesim_index_info", "gauge", "Constant 1, labeled with the active filter.").
		Sample(obs.Labels{"filter": g.IndexFilter}, 1)
	pw.Family("treesim_store_epoch", "gauge", "Storage-engine logical-state counter; advances on every insert, delete, seal and compaction.").
		Sample(nil, float64(g.StoreEpoch))
	pw.Family("treesim_store_segments", "gauge", "Sealed immutable segments (memtable excluded).").
		Sample(nil, float64(g.StoreSegments))
	pw.Family("treesim_store_memtable_trees", "gauge", "Trees in the mutable memtable segment.").
		Sample(nil, float64(g.StoreMemtableLen))
	pw.Family("treesim_store_tombstones", "gauge", "Unresolved tombstones (resolved at the next compaction).").
		Sample(nil, float64(g.StoreTombstones))
	pw.Family("treesim_store_seals_total", "counter", "Memtable seals since process start.").
		Sample(nil, float64(g.StoreSeals))
	pw.Family("treesim_store_compactions_total", "counter", "Completed compactions since process start.").
		Sample(nil, float64(g.StoreCompactions))
	pw.Family("treesim_inflight_requests", "gauge", "Query requests currently admitted.").
		Sample(nil, float64(g.InFlight))
	pw.Family("treesim_max_inflight_requests", "gauge", "Admission limit for concurrent queries.").
		Sample(nil, float64(g.MaxInFlight))
	pw.Family("treesim_inserts_total", "counter", "Accepted tree inserts.").
		Sample(nil, float64(g.Inserts))
	pw.Family("treesim_deletes_total", "counter", "Accepted tree deletes.").
		Sample(nil, float64(g.Deletes))
	pw.Family("treesim_snapshots_total", "counter", "Snapshots published.").
		Sample(nil, float64(g.Snapshots))
	pw.Family("treesim_wal_records_total", "counter", "WAL records appended by this process.").
		Sample(nil, float64(g.WALRecords))
	pw.Family("treesim_wal_replayed_records", "gauge", "WAL records replayed during startup recovery.").
		Sample(nil, float64(g.WALReplayed))
	pw.Family("treesim_snapshot_crc_failures_total", "counter", "Snapshots that failed checksum self-verification.").
		Sample(nil, float64(g.SnapCRCFailures))
	pw.Family("treesim_wal_segments", "gauge", "Segment files in the live write-ahead log.").
		Sample(nil, float64(g.WALSegments))
	pw.Family("treesim_wal_bytes", "gauge", "Total valid bytes across live WAL segments; growth means snapshots are falling behind the write rate.").
		Sample(nil, float64(g.WALBytes))
	degFam := pw.Family("treesim_degraded", "gauge", "1 while the server is in degraded read-only mode (durable writes failing), labeled with the entry reason.")
	if g.Degraded {
		degFam.Sample(obs.Labels{"reason": g.DegradedReason}, 1)
	} else {
		degFam.Sample(nil, 0)
	}
	pw.Family("treesim_degraded_total", "counter", "Times the server entered degraded read-only mode.").
		Sample(nil, float64(g.DegradedTotal))

	// Runtime telemetry.
	pw.Family("treesim_goroutines", "gauge", "Live goroutines.").
		Sample(nil, float64(g.Runtime.Goroutines))
	pw.Family("treesim_heap_bytes", "gauge", "Bytes of live heap objects.").
		Sample(nil, float64(g.Runtime.HeapBytes))
	pw.Family("treesim_gc_cycles_total", "counter", "Completed GC cycles.").
		Sample(nil, float64(g.Runtime.GCCycles))
	pw.Family("treesim_gc_pause_seconds", "histogram", "Stop-the-world GC pause distribution since process start.").
		Histogram(nil, g.Runtime.GCPause)
	pw.Family("treesim_sched_latency_seconds", "histogram", "Scheduler latency: time goroutines spend runnable before running.").
		Histogram(nil, g.Runtime.SchedLatency)

	// SLO burn rates: bad-request ratio over the error budget (1-target),
	// per endpoint, for the fast (incident-reactive) and slow (sustained
	// spend) windows.
	pw.Family("treesim_slo_latency_objective_seconds", "gauge", "Per-request latency objective; slower requests spend error budget.").
		Sample(nil, g.SLO.LatencyObjectiveS)
	pw.Family("treesim_slo_target", "gauge", "Good-request objective in (0,1).").
		Sample(nil, g.SLO.Target)
	burn := pw.Family("treesim_slo_burn_rate", "gauge",
		"Error-budget burn rate by endpoint and window; 1 spends the budget exactly at the objective rate.")
	for _, e := range g.SLO.Endpoints {
		burn.Sample(obs.Labels{"endpoint": e.Endpoint, "window": "fast"}, e.Fast.BurnRate)
		burn.Sample(obs.Labels{"endpoint": e.Endpoint, "window": "slow"}, e.Slow.BurnRate)
	}
	bad := pw.Family("treesim_slo_bad_requests", "gauge",
		"Requests that errored or ran past the latency objective, by endpoint, over the slow window.")
	for _, e := range g.SLO.Endpoints {
		bad.Sample(obs.Labels{"endpoint": e.Endpoint}, float64(e.Slow.Errors+e.Slow.Slow))
	}

	// Flight recorder.
	ret := pw.Family("treesim_trace_retained", "gauge", "Traces currently retained in the flight recorder, by class.")
	ret.Sample(obs.Labels{"class": "error"}, float64(g.Recorder.Errors))
	ret.Sample(obs.Labels{"class": "slow"}, float64(g.Recorder.Slow))
	ret.Sample(obs.Labels{"class": "baseline"}, float64(g.Recorder.Baseline))
	pw.Family("treesim_trace_offered_total", "counter", "Completed requests offered to the flight recorder.").
		Sample(nil, float64(g.Recorder.Offered))
	pw.Family("treesim_trace_dropped_total", "counter", "Offers dropped without snapshotting (normal requests losing the reservoir draw).").
		Sample(nil, float64(g.Recorder.Dropped))
	pw.Family("treesim_trace_threshold_seconds", "gauge", "Adaptive slow-trace retention threshold.").
		Sample(nil, float64(g.Recorder.ThresholdUS)/1e6)

	// OTLP trace export pipeline.
	pw.Family("treesim_otlp_queue_depth", "gauge", "Span trees waiting in the exporter queue.").
		Sample(nil, float64(g.Exporter.Queued))
	pw.Family("treesim_otlp_offered_total", "counter", "Span trees offered to the exporter.").
		Sample(nil, float64(g.Exporter.Offered))
	pw.Family("treesim_otlp_batches_total", "counter", "OTLP/JSON batches delivered to the collector.").
		Sample(nil, float64(g.Exporter.Batches))
	pw.Family("treesim_otlp_sent_spans_total", "counter", "Individual spans delivered to the collector.").
		Sample(nil, float64(g.Exporter.SentSpans))
	pw.Family("treesim_otlp_dropped_total", "counter", "Span trees dropped (queue full or delivery retries exhausted).").
		Sample(nil, float64(g.Exporter.Dropped))
	pw.Family("treesim_otlp_retries_total", "counter", "Batch delivery retries.").
		Sample(nil, float64(g.Exporter.Retries))
	pw.Family("treesim_otlp_batch_latency_seconds", "histogram", "Wall time from first delivery attempt to a batch's 2xx, retries included.").
		Histogram(nil, g.Exporter.BatchLatency)

	// Tail-triggered CPU profiler.
	pw.Family("treesim_profile_triggered_total", "counter", "Capture triggers from retained slow/errored traces.").
		Sample(nil, float64(g.Profiler.Triggered))
	pw.Family("treesim_profile_captured_total", "counter", "CPU profiles captured into the ring.").
		Sample(nil, float64(g.Profiler.Captured))
	pw.Family("treesim_profile_skipped_total", "counter", "Triggers absorbed by the rate limit or an in-flight capture.").
		Sample(nil, float64(g.Profiler.Skipped))
	pw.Family("treesim_profile_retained", "gauge", "Profiles currently held in the ring.").
		Sample(nil, float64(g.Profiler.Retained))

	// Per-endpoint counters and latency histograms. Rendering happens
	// under mu into the caller's buffer, mirroring Snapshot's consistency.
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	req := pw.Family("treesim_http_requests_total", "counter", "Requests finished, by endpoint.")
	for _, name := range names {
		req.Sample(obs.Labels{"endpoint": name}, float64(m.endpoints[name].requests))
	}
	errs := pw.Family("treesim_http_errors_total", "counter", "5xx responses (excluding 504), by endpoint.")
	for _, name := range names {
		errs.Sample(obs.Labels{"endpoint": name}, float64(m.endpoints[name].errors))
	}
	rej := pw.Family("treesim_http_rejected_total", "counter", "429 admission rejections, by endpoint.")
	for _, name := range names {
		rej.Sample(obs.Labels{"endpoint": name}, float64(m.endpoints[name].rejected))
	}
	tmo := pw.Family("treesim_http_timeouts_total", "counter", "504 query-deadline responses, by endpoint.")
	for _, name := range names {
		tmo.Sample(obs.Labels{"endpoint": name}, float64(m.endpoints[name].timeouts))
	}
	lat := pw.Family("treesim_http_request_duration_seconds", "histogram", "Request latency, by endpoint.")
	for _, name := range names {
		e := m.endpoints[name]
		lat.Histogram(obs.Labels{"endpoint": name}, obs.HistogramSnapshot{
			Bounds: latencySecondsBounds,
			Counts: append([]uint64(nil), e.buckets...),
			Count:  e.requests,
			Sum:    e.sum.Seconds(),
		})
	}
	// Exemplars ride as an ordinary gauge family (value = observed
	// seconds) rather than OpenMetrics `#`-syntax, so any 0.0.4 parser
	// keeps working; request_id links a bucket to GET /debug/traces/{id}.
	exf := pw.Family("treesim_request_latency_exemplar", "gauge",
		"Most recent request observed in each latency bucket; value is its latency in seconds.")
	for _, name := range names {
		e := m.endpoints[name]
		for i, ex := range e.exemplars.Snapshot() {
			if ex == nil {
				continue
			}
			le := "+Inf"
			if i < len(latencySecondsBounds) {
				le = strconv.FormatFloat(latencySecondsBounds[i], 'g', -1, 64)
			}
			exf.Sample(obs.Labels{"endpoint": name, "le": le, "request_id": ex.RequestID}, ex.Value)
		}
	}

	q := m.query
	accessed := make([]uint64, len(accessedBounds)+1)
	copy(accessed, q.accessedBuckets)
	m.mu.Unlock()

	pw.Family("treesim_queries_total", "counter", "Similarity queries served (batch inner queries counted individually).").
		Sample(nil, float64(q.count))
	pw.Family("treesim_query_verified_total", "counter", "Exact edit-distance verifications across all queries.").
		Sample(nil, float64(q.total.Verified))
	pw.Family("treesim_query_results_total", "counter", "Result rows returned across all queries.").
		Sample(nil, float64(q.total.Results))
	pw.Family("treesim_query_candidates_total", "counter", "Filter candidates across all queries.").
		Sample(nil, float64(q.total.Candidates))
	pruned := pw.Family("treesim_filter_pruned_total", "counter",
		"Trees the filter pruned, by the bound-cascade tier that ruled them out; with treesim_query_candidates_total it accounts for every tree a query saw.")
	pruned.Sample(obs.Labels{"tier": "size"}, float64(q.total.Pruned.Size))
	pruned.Sample(obs.Labels{"tier": "bdist"}, float64(q.total.Pruned.BDist))
	pruned.Sample(obs.Labels{"tier": "positional"}, float64(q.total.Pruned.Positional))
	pw.Family("treesim_query_false_positives_total", "counter",
		"Verified candidates whose exact distance failed the predicate, across all queries.").
		Sample(nil, float64(q.total.FalsePositives))
	pw.Family("treesim_refine_aborted_total", "counter",
		"Verifications the band-limited DP abandoned after proving the distance exceeds the cutoff.").
		Sample(nil, float64(q.total.RefineAborted))
	pw.Family("treesim_refine_precheck_rejects_total", "counter",
		"Verifications rejected by O(n) pre-checks (size/height/label-histogram deltas) before any DP work.").
		Sample(nil, float64(q.total.PrecheckRejects))
	pw.Family("treesim_refine_dp_cells_total", "counter",
		"Dynamic-programming cells actually touched across all verifications.").
		Sample(nil, float64(q.total.DPCells))
	pw.Family("treesim_refine_dp_cells_full_total", "counter",
		"Dynamic-programming cells a full (uncut) verification of the same pairs would touch.").
		Sample(nil, float64(q.total.DPCellsFull))
	pw.Family("treesim_query_accessed_fraction", "histogram",
		"Per-query accessed fraction: share of the dataset verified with an exact distance (the paper's quality measure).").
		Histogram(nil, obs.HistogramSnapshot{
			Bounds: accessedBounds,
			Counts: accessed,
			Count:  q.count,
			Sum:    q.accessedSum,
		})

	pw.Family("treesim_filter_candidates", "histogram",
		"Per-query candidate count the filter let through to verification.").
		Histogram(nil, m.FilterCandidates.Snapshot())
	pw.Family("treesim_filter_false_positive_ratio", "histogram",
		"Per-query share of verified candidates rejected by the exact distance (queries that verified at least one).").
		Histogram(nil, m.FalsePositiveRatio.Snapshot())
	pw.Family("treesim_filter_tightness_ratio", "histogram",
		"BDist/EDist over verified pairs in the last ~10 minutes; the paper bounds it by 4(q-1)+1.").
		Histogram(nil, m.Tightness.Snapshot())
	pw.Family("treesim_refine_dp_cells_per_verification", "histogram",
		"Per-query mean DP cells paid per verification under the bounded refine engine.").
		Histogram(nil, m.DPCellsPerVerify.Snapshot())

	pw.Family("treesim_query_filter_seconds", "histogram", "Per-query filter-stage time (lower-bound computation).").
		Histogram(nil, m.QueryFilter.Snapshot())
	pw.Family("treesim_query_refine_seconds", "histogram", "Per-query refine-stage time (exact edit distances).").
		Histogram(nil, m.QueryRefine.Snapshot())
	pw.Family("treesim_wal_append_seconds", "histogram", "WAL record append time, write plus policy fsync.").
		Histogram(nil, m.WALAppend.Snapshot())
	pw.Family("treesim_wal_fsync_seconds", "histogram", "WAL fsync time per flush.").
		Histogram(nil, m.WALFsync.Snapshot())
	pw.Family("treesim_snapshot_write_seconds", "histogram", "Snapshot publication time (write, sync, verify, rename).").
		Histogram(nil, m.SnapshotWrite.Snapshot())
	pw.Family("treesim_compaction_seconds", "histogram", "Segment compaction time (merge plus filter rebuild).").
		Histogram(nil, m.Compaction.Snapshot())

	return pw.Err()
}
