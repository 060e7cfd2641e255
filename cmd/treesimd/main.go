// Command treesimd is the long-lived similarity-search server: it loads or
// builds a filter-and-refine index once at startup and serves concurrent
// k-NN / range / insert traffic over HTTP/JSON (see internal/server for
// the API).
//
//	treesimd -data data.trees -addr :8080
//	treesimd -data data.trees -snapshot index.tsix     # warm restarts
//	treesimd -index data.tsix -max-inflight 128 -timeout 5s
//
// Index sources, in priority order: -snapshot (when the file exists — a
// warm restart), -index (a file written by 'treesim index'), -data/-xml
// (build from a dataset with -filter/-q). With -snapshot set, the server
// persists the live index there periodically and again on shutdown, so
// inserts survive restarts.
//
// With -wal set, every accepted insert is appended to a write-ahead log
// before it is acknowledged, closing the crash window between snapshots:
// startup recovery loads the snapshot, replays the WAL records it does
// not cover, and trims the log once a fresh snapshot is published. The
// log is segmented — it rotates to a new file beyond -wal-max-bytes and
// trimming deletes whole covered segments — and -wal-sync chooses the
// fsync policy ("always" per record, or "never").
//
// Snapshots are generational: each publication shifts the previous file
// to <path>.1, .2, … up to -snapshot-keep generations. A corrupt or
// truncated snapshot no longer aborts startup when an older generation
// loads — the server falls back generation by generation and replays
// the correspondingly longer WAL suffix. Startup fails only when every
// retained generation is damaged. At runtime a failing disk (WAL append
// or snapshot errors) flips the server into degraded read-only mode:
// queries keep serving, writes get 503 not_durable with Retry-After,
// and a background prober restores write service when the disk heals.
//
// Observability: every request logs one "request" line; ?trace=1 on the
// query endpoints returns its span breakdown inline, ?explain=1 returns
// the per-query filter-quality analysis, GET /metrics
// serves every metric family as JSON, or as Prometheus text with
// ?format=prom (error-budget burn rates are a rate() over its request,
// error and latency-bucket counters), GET /version reports the build, and
// -pprof mounts net/http/pprof on a separate loopback-only listener — the
// one way to take a CPU profile of the daemon. -qlog records served
// queries (sampled by -qlog-sample, rotated beyond -qlog-max-bytes) to a
// JSONL workload log that cmd/treesim-analyze replays offline against a
// matrix of filters.
//
// A flight recorder keeps the span trees of recent interesting requests
// in a fixed ring (-trace-ring entries): every errored request, every
// request slower than an adaptive tail threshold, and a sampled baseline
// of normal traffic. An errored or slow request's "request" line goes out
// at WARN with retained=error or retained=slow and the threshold, so the
// log names the tail and its trace_id. The loopback-only GET
// /debug/traces lists the ring (filter with ?endpoint=, ?min_us=,
// ?error=1) and GET /debug/traces/{id} fetches one by request or trace
// ID; browse them with cmd/treesim-trace.
//
// Distributed tracing: every request carries W3C trace-context — an
// inbound traceparent header continues the caller's trace, otherwise a
// fresh 128-bit trace ID is minted — and the ID is echoed in X-Trace-Id
// and the request's log line.
//
// SIGINT/SIGTERM trigger a graceful drain: readiness flips to 503,
// in-flight queries finish, a final snapshot is written, then the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"treesim/internal/dataset"
	"treesim/internal/qlog"
	"treesim/internal/search"
	"treesim/internal/server"
	"treesim/internal/tree"
	"treesim/internal/wal"
	"treesim/internal/xmltree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// config is the parsed flag set.
type config struct {
	addr         string
	data, xmlDir string
	indexFile    string
	snapshot     string
	snapInterval time.Duration
	snapKeep     int
	walPath      string
	walSync      string
	walMaxBytes  int64
	filter       string
	q            int
	maxInFlight  int
	timeout      time.Duration
	drain        time.Duration
	addrFile     string
	omitTrees    bool
	pprofAddr    string
	qlogPath     string
	qlogSample   float64
	qlogMaxBytes int64
	memtable     int
	compactAt    int
	traceRing    int
	version      bool
}

// run is main with injectable args/stderr and an exit code, so the
// lifecycle is testable in-process.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("treesimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.data, "data", "", "dataset file in line format (build an index at startup)")
	fs.StringVar(&c.xmlDir, "xml", "", "directory of XML documents (alternative to -data)")
	fs.StringVar(&c.indexFile, "index", "", "saved index file from 'treesim index' (alternative to -data/-xml)")
	fs.StringVar(&c.snapshot, "snapshot", "", "snapshot path: loaded at startup when present, persisted periodically and at shutdown")
	fs.DurationVar(&c.snapInterval, "snapshot-interval", time.Minute, "periodic snapshot cadence (requires -snapshot)")
	fs.IntVar(&c.snapKeep, "snapshot-keep", 3, "snapshot generations retained for corruption fallback (1 = only the latest)")
	fs.StringVar(&c.walPath, "wal", "", "write-ahead log path: inserts are logged before acknowledgment and replayed at startup")
	fs.StringVar(&c.walSync, "wal-sync", "always", "WAL fsync policy: always (fsync per record) or never")
	fs.Int64Var(&c.walMaxBytes, "wal-max-bytes", 0, "rotate the WAL to a new segment beyond this size (0 = 64MiB, negative disables rotation)")
	fs.StringVar(&c.filter, "filter", "bibranch", "filter when building from -data/-xml: bibranch, bibranch-qN")
	fs.IntVar(&c.q, "q", 2, "binary branch level (2-16) of bibranch when building from -data/-xml")
	fs.IntVar(&c.maxInFlight, "max-inflight", 64, "admitted concurrent query requests; beyond this the server answers 429")
	fs.DurationVar(&c.timeout, "timeout", 10*time.Second, "per-query deadline (504 beyond it)")
	fs.DurationVar(&c.drain, "drain", 15*time.Second, "graceful-shutdown drain budget")
	fs.StringVar(&c.addrFile, "addr-file", "", "write the bound address to this file once listening (for scripts)")
	fs.BoolVar(&c.omitTrees, "omit-trees", false, "leave tree text out of query results")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060); empty disables")
	fs.StringVar(&c.qlogPath, "qlog", "", "record served queries to this JSONL workload log (replay with treesim-analyze); empty disables")
	fs.Float64Var(&c.qlogSample, "qlog-sample", 1, "fraction of queries recorded to -qlog, deterministic in stream position (0,1]")
	fs.Int64Var(&c.qlogMaxBytes, "qlog-max-bytes", 0, "rotate the -qlog file beyond this size (0 = 64MiB, negative disables rotation)")
	fs.IntVar(&c.memtable, "memtable-size", 0, "inserts absorbed by the mutable memtable segment before it seals (0 = default)")
	fs.IntVar(&c.compactAt, "compact-threshold", 0, "sealed segments that trigger a background compaction (0 = default, negative = manual only)")
	fs.IntVar(&c.traceRing, "trace-ring", 0, "retained traces in the flight recorder, served on /debug/traces (0 = 256, negative disables)")
	fs.BoolVar(&c.version, "version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if c.version {
		bi := server.Build()
		fmt.Fprintf(stderr, "treesimd %s", bi.GoVersion)
		if bi.Revision != "" {
			dirty := ""
			if bi.Dirty {
				dirty = " (dirty)"
			}
			fmt.Fprintf(stderr, " %s%s %s", bi.Revision, dirty, bi.Time)
		}
		fmt.Fprintln(stderr)
		return 0
	}

	syncPolicy, err := wal.ParseSyncPolicy(c.walSync)
	if err != nil {
		fmt.Fprintf(stderr, "treesimd: -wal-sync: %v\n", err)
		return 2
	}

	log := slog.New(slog.NewTextHandler(stderr, nil))
	ix, origin, err := loadIndex(c)
	if err != nil {
		fmt.Fprintf(stderr, "treesimd: %v\n", err)
		return 1
	}
	log.Info("index ready", "trees", ix.Size(), "filter", ix.Filter().Name(), "origin", origin)

	scfg := server.Config{
		MaxInFlight:      c.maxInFlight,
		QueryTimeout:     c.timeout,
		SnapshotPath:     c.snapshot,
		SnapshotInterval: c.snapInterval,
		SnapshotKeep:     c.snapKeep,
		WALPath:          c.walPath,
		WALSync:          syncPolicy,
		WALMaxBytes:      c.walMaxBytes,
		OmitTrees:        c.omitTrees,
		TraceRing:        c.traceRing,
		Logger:           log,
	}
	if c.qlogPath != "" {
		qw, err := qlog.Open(c.qlogPath, qlog.Options{SampleRate: c.qlogSample, MaxBytes: c.qlogMaxBytes})
		if err != nil {
			fmt.Fprintf(stderr, "treesimd: -qlog: %v\n", err)
			return 2
		}
		defer func() {
			seen, kept, errs := qw.Counters()
			log.Info("query log closed", "path", c.qlogPath, "seen", seen, "recorded", kept, "errors", errs)
			qw.Close()
		}()
		scfg.QueryLog = qw
		log.Info("query log enabled", "path", c.qlogPath, "sample", c.qlogSample)
	}
	srv := server.New(ix, scfg)

	rec, err := srv.Recover()
	if err != nil {
		fmt.Fprintf(stderr, "treesimd: recovery: %v\n", err)
		return 1
	}
	if c.walPath != "" {
		log.Info("recovery complete", "result", rec.String(), "trees", ix.Size())
	}

	if c.pprofAddr != "" {
		pln, err := listenPprof(c.pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "treesimd: -pprof: %v\n", err)
			return 2
		}
		defer pln.Close()
		go servePprof(pln)
		log.Info("pprof listening", "addr", pln.Addr().String())
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		fmt.Fprintf(stderr, "treesimd: %v\n", err)
		return 1
	}
	if c.addrFile != "" {
		if err := os.WriteFile(c.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "treesimd: writing -addr-file: %v\n", err)
			ln.Close()
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener failed before any signal.
		fmt.Fprintf(stderr, "treesimd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	log.Info("signal received, draining", "budget", c.drain)
	sctx, cancel := context.WithTimeout(context.Background(), c.drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "treesimd: shutdown: %v\n", err)
		return 1
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "treesimd: serve: %v\n", err)
		return 1
	}
	return 0
}

// listenPprof binds the debug listener, refusing non-loopback addresses:
// pprof exposes heap contents and must never face the network.
func listenPprof(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("bad address %q: %v", addr, err)
	}
	ip := net.ParseIP(host)
	if host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return nil, fmt.Errorf("refusing non-loopback address %q (pprof exposes process internals)", addr)
	}
	return net.Listen("tcp", addr)
}

// servePprof mounts the net/http/pprof handlers on a fresh mux — never the
// default one, which other packages may have extended — and serves until
// the listener closes.
func servePprof(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	_ = srv.Serve(ln)
}

// loadIndex resolves the index source: warm snapshot, saved index file, or
// a dataset to build from. The storage options apply uniformly to all
// three paths.
func loadIndex(c config) (*search.Index, string, error) {
	opts := []search.IndexOption{
		search.WithMemtableSize(c.memtable), search.WithCompactionThreshold(c.compactAt),
	}
	if c.snapshot != "" {
		ix, gen, err := server.LoadSnapshotFallback(nil, c.snapshot, c.snapKeep, opts...)
		switch {
		case err == nil:
			origin := "snapshot " + c.snapshot
			if gen > 0 {
				// Newer generations were corrupt or truncated; the WAL
				// replay that follows covers the suffix this older cut
				// misses.
				origin = fmt.Sprintf("snapshot %s (fell back to generation %d)", c.snapshot, gen)
			}
			return ix, origin, nil
		case errors.Is(err, os.ErrNotExist):
			// Cold start: no generation on disk, fall through to the
			// other index sources.
		default:
			return nil, "", fmt.Errorf("loading snapshot %s: %w", c.snapshot, err)
		}
	}
	if c.indexFile != "" {
		f, err := os.Open(c.indexFile)
		if err != nil {
			return nil, "", fmt.Errorf("opening index: %w", err)
		}
		defer f.Close()
		ix, err := search.LoadIndex(f, opts...)
		if err != nil {
			return nil, "", fmt.Errorf("loading index %s: %w", c.indexFile, err)
		}
		return ix, "index " + c.indexFile, nil
	}

	switch {
	case c.data != "":
		ts, err := dataset.LoadFile(c.data)
		if err != nil {
			return nil, "", fmt.Errorf("loading dataset: %w", err)
		}
		return buildIndex(c, ts, "dataset "+c.data)
	case c.xmlDir != "":
		ts, _, err := dataset.LoadXMLDir(c.xmlDir, xmltree.DefaultOptions())
		if err != nil {
			return nil, "", fmt.Errorf("loading XML directory: %w", err)
		}
		return buildIndex(c, ts, "xml "+c.xmlDir)
	}
	return nil, "", errors.New("need an index source: -snapshot (existing), -index, -data or -xml")
}

func buildIndex(c config, ts []*tree.Tree, origin string) (*search.Index, string, error) {
	if len(ts) == 0 {
		return nil, "", errors.New("dataset is empty")
	}
	flt, err := search.ParseFilter(c.filter, c.q)
	if err != nil {
		return nil, "", err
	}
	if flt == nil {
		return nil, "", fmt.Errorf("filter %q cannot be served: snapshots hold a bibranch family only", c.filter)
	}
	ix := search.NewIndex(ts, flt,
		search.WithMemtableSize(c.memtable), search.WithCompactionThreshold(c.compactAt))
	return ix, origin, nil
}
