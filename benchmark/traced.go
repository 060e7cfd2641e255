package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"treesim/internal/search"
	"treesim/internal/server"
	"treesim/internal/tree"
	"treesim/internal/wal"
)

// span is one timed call at a layer boundary. The spans of one request
// share its index as trace id and nest by call depth: the four depths of
// a request run back to back, not inside one another, so a child's
// interval lies after its parent's, and a layer's self time is its
// duration minus its children's durations.
type span struct {
	Trace  int              `json:"trace"`
	Span   int              `json:"span"`
	Parent int              `json:"parent"` // 0: the root
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the traced pass began
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// add records one span and returns its id.
func (t *tracer) add(trace, parent int, name string, start time.Time, d time.Duration, counts map[string]int64) int {
	id := len(t.spans) + 1
	at := start.Sub(t.t0)
	t.spans = append(t.spans, span{trace, id, parent, name, int64(at), int64(at + d), counts})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layers accumulates the traced pass: per traced query the four depths
// and the ladder's rungs, per traced write the engine call.
type layers struct {
	index                         []int     // list position of each traced query
	roundtrip, handler, query     []float64 // µs per traced query, depths 1–3
	filter, refine                []float64 // µs, the engine's own Stats of depth 3
	respBytes                     []float64
	candidates, verified, results []float64 // the public stats block of the depth-1 answer
	accessed                      []float64
	rungs                         []rungs
	insertRT                      []float64 // µs per traced insert, depth 1
	insert, delete                []float64 // µs per Index.Insert / Index.Delete
}

func single(name, unit string, v float64) metric {
	return metric{name, unit, summary{value: v}}
}

// runTraced takes the per-layer metrics of one workload from outside: an
// untraced pass for the runtime's and the store's counters, the traced
// pass itself — every request at four call depths, each timed by the
// benchmark around a public function — and three side measurements
// (recorder on/off, a scratch WAL, the crash-restart replay).
func runTraced(w *workload, o options) (*result, error) {
	in := w.generate(o.seed, o.scale)
	inst, dir, _, builds, err := setUp(w, in, o, 1)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newRunner(w, in, inst)

	// Untraced pass over the head of the list, the requests the traced
	// pass repeats: the runtime's and the store's counters, and the
	// reference for the traced pass's own overhead.
	list := tracedList(w, in)
	r.drive(o.share(0.05))
	var m0, m1 runtime.MemStats
	st0 := inst.ix.StoreStats()
	runtime.ReadMemStats(&m0)
	untraced := r.drive(o.share(0.30))
	runtime.ReadMemStats(&m1)
	st1 := inst.ix.StoreStats()

	ls, tr := r.tracedPass(list, time.Now().Add(o.share(0.45)))
	recorder, recorderPairs := r.recorderCost(list, time.Now().Add(o.share(0.08)))
	appendUS, recordBytes, err := walCost(dir, in, o)
	if err != nil {
		return nil, err
	}
	// What a compaction costs here: freeze the memtable and merge every
	// sealed segment, a full re-profile of the live dataset. (Compact
	// reports false when a background compaction holds the store.)
	compactionMS := 0.0
	inst.ix.Seal()
	if t0 := time.Now(); inst.ix.Compact() {
		compactionMS = ms(time.Since(t0))
	}
	recoverMS := r.crashRestart()
	if err := tr.write(filepath.Join(o.out, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}

	var rg rungs // sums over the traced queries
	for _, x := range ls.rungs {
		rg.parse += x.parse
		rg.profile += x.profile
		rg.bounds += x.bounds
		rg.order += x.order
		rg.verify += x.verify
		rg.format += x.format
		rg.bdist += x.bdist
		rg.full += x.full
		rg.trees += x.trees
		rg.pairs += x.pairs
		rg.prechecked += x.prechecked
		rg.aborted += x.aborted
		rg.cells += x.cells
		rg.fullCells += x.fullCells
	}
	perQuery := func(d time.Duration) float64 { return ratio(us(d), float64(len(ls.rungs))) }
	parse, profile, bounds := perQuery(rg.parse), perQuery(rg.profile), perQuery(rg.bounds)
	order, verify, format := perQuery(rg.order), perQuery(rg.verify), perQuery(rg.format)
	roundtrip, handler, query := mean(ls.roundtrip), mean(ls.handler), mean(ls.query)
	ladder := profile + bounds + order + verify
	// Differences between separate executions of one request are taken
	// request by request and reported as medians: a difference of means is
	// at the mercy of a few disturbed requests.
	var net, overhead, traceCost []float64
	for j, i := range ls.index {
		net = append(net, ls.roundtrip[j]-ls.handler[j])
		overhead = append(overhead, ls.handler[j]-ls.query[j])
		// The untraced pass walked the same list from its start.
		if i < len(untraced.samples) {
			traceCost = append(traceCost, 100*(ratio(ls.roundtrip[j], 1000*untraced.samples[i].ms)-1))
		}
	}
	metrics := []metric{
		single("server.roundtrip_us", "us", roundtrip),
		single("server.handler_us", "us", handler),
		single("server.net_us", "us", median(net)),
		single("server.overhead_us", "us", median(overhead)),
		single("server.resp_bytes", "bytes", mean(ls.respBytes)),
		single("server.alloc_kb_per_req", "KiB", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(len(untraced.samples)))),
		single("obs.recorder_us_per_req", "us", recorder),
		single("tree.parse_us", "us", parse),
		single("tree.format_us", "us", format),
		single("branch.profile_us", "us", profile),
		single("branch.lbound_ns_per_tree", "ns", ratio(float64(rg.bounds), float64(rg.trees))),
		single("branch.bdist_ns_per_tree", "ns", ratio(float64(rg.bdist), float64(rg.trees))),
		single("search.query_us", "us", query),
		single("search.filter_us", "us", mean(ls.filter)),
		single("search.refine_us", "us", mean(ls.refine)),
		single("search.unaccounted_us", "us", query-ladder),
		single("search.build_ms", "ms", median(builds)),
		single("search.candidates_per_query", "count", mean(ls.candidates)),
		single("search.verified_per_query", "count", mean(ls.verified)),
		single("search.results_per_query", "count", mean(ls.results)),
		single("search.accessed_fraction", "ratio", mean(ls.accessed)),
		single("search.useful_verify_ratio", "ratio", ratio(mean(ls.results), mean(ls.verified))),
		single("editdist.within_us_per_pair", "us", ratio(us(rg.verify), float64(rg.pairs))),
		single("editdist.full_us_per_pair", "us", ratio(us(rg.full), float64(rg.pairs))),
		single("editdist.dp_cells_per_pair", "count", ratio(float64(rg.cells), float64(rg.pairs))),
		single("editdist.dp_cells_ratio", "ratio", ratio(float64(rg.cells), float64(rg.fullCells))),
		single("editdist.precheck_reject_ratio", "ratio", ratio(float64(rg.prechecked), float64(rg.pairs))),
		single("editdist.abort_ratio", "ratio", ratio(float64(rg.aborted), float64(rg.pairs))),
		// Medians: a traced run has a few dozen writes, and the one that
		// seals a memtable or pays for a collection would be their mean.
		single("server.insert_us", "us", median(ls.insertRT)),
		single("search.insert_us", "us", median(ls.insert)),
		single("search.delete_us", "us", median(ls.delete)),
		single("search.seals", "count", float64(st1.Seals-st0.Seals)),
		single("search.compactions", "count", float64(st1.Compactions-st0.Compactions)),
		single("search.compaction_ms", "ms", compactionMS),
		single("wal.append_us", "us", appendUS),
		single("wal.bytes_per_record", "bytes", recordBytes),
		single("server.recover_ms", "ms", recoverMS),
		single("go.gc_cycles", "count", float64(m1.NumGC-m0.NumGC)),
		single("go.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6),
		single("trace.overhead_pct", "%", median(traceCost)),
	}

	// The accounting row: the parts add up to the round trip exactly,
	// because every part is a mean over the same traced queries (so its net
	// and server parts are differences of means, not the medians above).
	parts := []struct {
		name string
		us   float64
	}{
		{"net", roundtrip - handler},
		{"server", handler - query - parse - format},
		{"parse", parse}, {"profile", profile}, {"bounds", bounds},
		{"order", order}, {"verify", verify}, {"format", format},
		{"unaccounted", query - ladder},
	}
	row := fmt.Sprintf("accounting, mean of %d traced queries: round trip %.0f us =", len(ls.roundtrip), roundtrip)
	for i, p := range parts {
		if i > 0 {
			row += " +"
		}
		row += fmt.Sprintf(" %s %.0f (%.1f%%)", p.name, p.us, 100*ratio(p.us, roundtrip))
	}
	notes := []string{
		row,
		fmt.Sprintf("samples: %d traced queries, %d traced inserts; obs.recorder_us_per_req over %d pairs; trace.overhead_pct over %d pairs (untraced pass: %d requests)",
			len(ls.roundtrip), len(ls.insertRT), recorderPairs, len(traceCost), len(untraced.samples)),
		fmt.Sprintf("%d spans in %s", len(tr.spans), filepath.Join(o.out, "trace-"+w.name+".jsonl")),
	}
	return r.result(metrics, notes), nil
}

// tracedList is what the traced pass executes: the head of the request
// list, its writes included.
func tracedList(w *workload, in *inputs) []request {
	return in.reqs[:min(w.traced, len(in.reqs))]
}

// tracedPass executes the list once, one client; queries stop at the
// deadline. A query runs at four nested call depths — (1) client round
// trip, (2) the server's route tree in process, (3) Index.KNN / Index.Range, (4) the
// ladder on the benchmark's mirror — and the ladder's answer must equal
// the server's. A write runs at depths 1 and 2 through the server and at
// depth 3 against an index of the benchmark's own.
func (r *runner) tracedPass(list []request, deadline time.Time) (*layers, *tracer) {
	ix := r.inst.ix
	// Depth 3 of a write: a direct Index.Insert would bypass the server's
	// WAL and break the crash-restart check, so it is timed on a small
	// index of the benchmark's own, configured like the served one.
	writes := search.NewIndex(r.in.base[:min(1000, len(r.in.base))], r.w.indexOpts()...)
	m := newMirror(ix)
	ls := &layers{}
	tr := &tracer{t0: time.Now()}
	h := inProcess(r.inst.srv.Handler())
	var own []int // ids the pass inserted at depth 3
	for i, rq := range list {
		if rq.kind.query() && !time.Now().Before(deadline) {
			continue // out of time for queries; the few writes still run
		}
		d1 := r.exec(rq, r.overHTTP)
		root := tr.add(i, 0, "client."+rq.kind.String(), d1.start, d1.dur, map[string]int64{"resp_bytes": int64(d1.bytes)})
		d2 := r.exec(rq, h)
		hs := tr.add(i, root, "server.handler", d2.start, d2.dur, nil)
		if !d1.ok || !d2.ok {
			continue
		}
		t, err := tree.Parse(rq.tree)
		if err != nil {
			r.fail("traced pass: generated tree does not parse: %v", err)
			continue
		}
		switch rq.kind {
		case opDelete:
			m.delete(d1.id)
			m.delete(d2.id)
		case opInsert:
			m.insert(t)
			m.insert(t)
			t0 := time.Now()
			id, _ := writes.Insert(t) // the error is always nil
			d := time.Since(t0)
			tr.add(i, hs, "search.insert", t0, d, nil)
			ls.insertRT = append(ls.insertRT, us(d1.dur))
			ls.insert = append(ls.insert, us(d))
			own = append(own, id)
		default:
			t0 := time.Now()
			var st search.Stats
			if rq.kind == opKNN {
				_, st, err = ix.KNN(context.Background(), t, rq.arg)
			} else {
				_, st, err = ix.Range(context.Background(), t, rq.arg)
			}
			d3 := time.Since(t0)
			if err != nil {
				r.fail("traced pass: %s: %v", rq.kind, err)
				continue
			}
			qs := tr.add(i, hs, "search.query", t0, d3, map[string]int64{
				"candidates": int64(st.Candidates), "verified": int64(st.Verified), "results": int64(st.Results),
				"dp_cells": st.DPCells, "dp_cells_full": st.DPCellsFull,
			})
			best, rg, err := m.run(rq)
			if err != nil {
				r.fail("traced pass: ladder: %v", err)
				continue
			}
			r.attempted++
			if !sameAnswer(best, d1.query) {
				r.fail("traced pass: the ladder's answer to request %d differs from the server's", i)
			}
			// The rungs ran back to back from rg.start.
			at := rg.start
			rung := func(parent int, name string, d time.Duration, counts map[string]int64) {
				tr.add(i, parent, name, at, d, counts)
				at = at.Add(d)
			}
			rung(hs, "tree.parse", rg.parse, nil)
			rung(qs, "branch.profile", rg.profile, nil)
			rung(qs, "branch.bounds", rg.bounds, map[string]int64{"trees": int64(rg.trees)})
			rung(qs, "search.order", rg.order, nil)
			rung(qs, "editdist.verify", rg.verify, map[string]int64{
				"pairs": int64(rg.pairs), "precheck_rejects": int64(rg.prechecked), "aborted": int64(rg.aborted),
				"dp_cells": rg.cells, "dp_cells_full": rg.fullCells,
			})
			rung(hs, "tree.format", rg.format, map[string]int64{"results": int64(len(best))})

			ls.index = append(ls.index, i)
			ls.roundtrip = append(ls.roundtrip, us(d1.dur))
			ls.handler = append(ls.handler, us(d2.dur))
			ls.query = append(ls.query, us(d3))
			ls.filter = append(ls.filter, us(st.FilterTime))
			ls.refine = append(ls.refine, us(st.RefineTime))
			ls.respBytes = append(ls.respBytes, float64(d1.bytes))
			qst := d1.query.Stats
			ls.candidates = append(ls.candidates, float64(qst.Candidates))
			ls.verified = append(ls.verified, float64(qst.Verified))
			ls.results = append(ls.results, float64(qst.Results))
			ls.accessed = append(ls.accessed, qst.AccessedFraction)
			ls.rungs = append(ls.rungs, rg)
		}
	}
	for _, id := range own {
		t0 := time.Now()
		ok := writes.Delete(id)
		ls.delete = append(ls.delete, us(time.Since(t0)))
		if !ok {
			r.fail("traced pass: Index.Delete(%d) of a tree the pass inserted reports false", id)
		}
	}
	return ls, tr
}

// sameAnswer reports whether the ladder and the server agree on ids and
// distances, in order.
func sameAnswer(best []match, qr *queryResponse) bool {
	if len(best) != len(qr.Results) {
		return false
	}
	for i, b := range best {
		if qr.Results[i].ID != b.id || qr.Results[i].Dist != b.dist {
			return false
		}
	}
	return true
}

// recorderCost is what the flight recorder adds to a request: over the
// same queries, the median difference between the in-process handler time
// with the default TraceRing and with TraceRing -1, the two sides
// interleaved and alternating which goes first. It also returns the number
// of pairs.
func (r *runner) recorderCost(list []request, deadline time.Time) (float64, int) {
	// A second server over the same index, read-only use, recorder off.
	quietCfg := r.inst.cfg
	quietCfg.WALPath = ""
	quietCfg.TraceRing = -1
	quiet := server.New(r.inst.ix, quietCfg)
	on, off := inProcess(r.inst.srv.Handler()), inProcess(quiet.Handler())
	var diffs []float64
	for i, rq := range list {
		if !time.Now().Before(deadline) {
			break
		}
		if !rq.kind.query() {
			continue
		}
		var with, without time.Duration
		if i%2 == 0 {
			with, without = r.exec(rq, on).dur, r.exec(rq, off).dur
		} else {
			without, with = r.exec(rq, off).dur, r.exec(rq, on).dur
		}
		diffs = append(diffs, us(with-without))
	}
	return median(diffs), len(diffs)
}

// walCost appends the workload's insert records to a scratch log under
// SyncAlways and returns the mean Log.Append time in µs and the bytes per
// record on disk. The fsync is this sandbox's, not a device's.
func walCost(dir string, in *inputs, o options) (appendUS, recordBytes float64, err error) {
	var inserts []string
	for _, rq := range in.reqs {
		if rq.kind == opInsert {
			inserts = append(inserts, rq.tree)
		}
	}
	// A read-only list holds a dozen inserts: go round them.
	texts := make([]string, scaled(200, o.scale, 20))
	for i := range texts {
		texts[i] = inserts[i%len(inserts)]
	}
	l, err := wal.Open(filepath.Join(dir, "scratch.wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, 0, err
	}
	empty := l.Bytes()
	var spent time.Duration
	for i, text := range texts {
		rec := wal.EncodeInsert(i, text)
		t0 := time.Now()
		if err := l.Append(rec); err != nil {
			l.Close()
			return 0, 0, err
		}
		spent += time.Since(t0)
	}
	recordBytes = ratio(float64(l.Bytes()-empty), float64(len(texts)))
	return ratio(us(spent), float64(len(texts))), recordBytes, l.Close()
}
