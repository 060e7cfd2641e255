package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// options are the knobs of one run, shared by the driver protocol, the
// all-workloads report and the smoke test.
type options struct {
	seed    int64
	seconds float64 // length of the measured phase
	scale   float64 // 1 is full scale; the smoke test runs far below it
	out     string  // directory for scratch files and trace artefacts
}

func (o options) share(f float64) time.Duration {
	return time.Duration(f * o.seconds * float64(time.Second))
}

// metric is one reported number, with its per-pass (or per-trial) values
// when it has them.
type metric struct {
	name, unit string
	summary
}

// result is one run of one workload.
type result struct {
	workload  *workload
	attempted int64
	failed    int64
	failures  []string
	metrics   []metric
	notes     []string // sample counts, the accounting row
}

func (r *runner) result(metrics []metric, notes []string) *result {
	return &result{
		workload:  r.w,
		attempted: r.attempted,
		failed:    r.failed,
		failures:  r.failures,
		metrics:   metrics,
		notes:     notes,
	}
}

// minPasses is the fewest measured passes a run makes, however slow the
// machine is.
const minPasses = 3

// stopwatch records where a run's wall time went, for the time budget.
type stopwatch struct {
	last time.Time
	out  string
}

func (s *stopwatch) lap(name string) {
	now := time.Now()
	s.out += fmt.Sprintf(" %s %.1f s,", name, now.Sub(s.last).Seconds())
	s.last = now
}

func (s *stopwatch) String() string { return "wall time:" + strings.TrimSuffix(s.out, ",") }

// setUp times the set-up at least trials times — and, when a set-up is
// short, until a sixteenth of the run's seconds is spent — so that the
// median is steady on small datasets too. The last server stays up for
// the run.
func setUp(w *workload, in *inputs, o options, trials int) (inst *instance, dir string, setups, builds []float64, err error) {
	spent := time.Duration(0)
	for {
		if dir, err = scratchDir(o.out, w.name); err != nil {
			return nil, "", nil, nil, err
		}
		var build, total time.Duration
		if inst, build, total, err = start(w, in, dir); err != nil {
			return nil, "", nil, nil, err
		}
		setups = append(setups, total.Seconds())
		builds = append(builds, ms(build))
		spent += total
		if len(setups) >= trials && spent > o.share(1)/16 {
			return inst, dir, setups, builds, nil
		}
		if err = inst.shutdown(); err != nil {
			return nil, "", nil, nil, err
		}
		os.RemoveAll(dir)
	}
}

// runEndToEnd measures the end-to-end metrics of one workload: set-up,
// heap, an oracle check, one warm-up slice, the measured passes, the
// crash-restart check. Tracing is off throughout.
//
// A pass walks the whole request list once, so every pass does the same
// work and request j of one pass is request j of every other. The list is
// sized for eight passes or so in the run's seconds; passes are made
// until the next would overrun them. On a shared machine interference
// only ever slows a request down, in spells from under a second to many
// seconds, so a request's latency is the best of its repetitions (see
// best), and the four timed metrics are taken over the list's requests
// from those: the p50 and p90 nearest-rank over its queries, the p50 over
// its inserts, and the rate of one closed-loop client walking the list,
// requests ÷ the sum of their latencies. The plain values of each pass —
// p90 and requests ÷ wall time, the program's rare stalls and the
// machine's spells included — are printed beside them.
func runEndToEnd(w *workload, o options) (*result, error) {
	laps := stopwatch{last: time.Now()}
	in := w.generate(o.seed, o.scale)
	laps.lap("generate")
	inst, dir, setups, _, err := setUp(w, in, o, 3)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newRunner(w, in, inst)
	heap := heapMB()
	laps.lap("set-up")
	r.oracleCheck(w.oracle, in.base, r.overHTTP)
	laps.lap("oracle")

	const warm = 0.05
	r.drive(o.share(warm))
	var passes []pass
	var p90s, rpss []float64
	for t0, budget := time.Now(), o.share(1-warm); ; {
		p := r.walk(in.reqs)
		passes = append(passes, p)
		p90s = append(p90s, percentile(p.latencies(opKind.query), 0.90))
		rpss = append(rpss, float64(len(p.samples))/p.wall.Seconds())
		// Stop when one more pass of the mean length would overrun.
		n := time.Duration(len(passes))
		if len(passes) >= minPasses && time.Since(t0)*(n+1)/n > budget {
			break
		}
	}
	laps.lap("measure")
	r.readBack()
	r.crashRestart()
	laps.lap("crash-restart")

	steady := pass{samples: best(passes)}
	queries := steady.latencies(opKind.query)
	inserts := steady.latencies(func(k opKind) bool { return k == opInsert })
	all := steady.latencies(func(opKind) bool { return true })
	values := []summary{ // in the order of the endToEnd table
		summarize(setups),
		{value: heap},
		{value: percentile(queries, 0.50)},
		{percentile(queries, 0.90), sorted(p90s)},
		{value: percentile(inserts, 0.50)},
		{1000 * float64(len(all)) / sum(all), sorted(rpss)},
	}
	metrics := make([]metric, len(endToEnd))
	for i, def := range endToEnd {
		metrics[i] = metric{def.name, def.unit, values[i]}
	}
	notes := []string{fmt.Sprintf(
		"%d set-ups; %d passes over %d requests (%d queries, %d inserts), 1 client, GOMAXPROCS %d",
		len(setups), len(passes), len(in.reqs), len(queries), len(inserts), runtime.GOMAXPROCS(0)),
		laps.String()}
	return r.result(metrics, notes), nil
}
