// Command benchmark is the treesim benchmark: it starts the real
// internal/server in process on a loopback listener over a real
// search.Index, drives it over HTTP with one closed-loop client on one
// core, checks every answer, and prints every metric by name with its
// unit.
//
//	sh benchmark/run.sh                      every workload, both modes
//	sh benchmark/run.sh --repeat 2           two sets and their agreement
//	sh benchmark/run.sh --workload range_scan --seed 3 --seconds 25 --trace 0
//
// With --workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced pass with --trace 1. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the datasets and request lists")
	seconds := fs.Float64("seconds", 25, "length of one run's measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	repeat := fs.Int("repeat", 1, "with -workload all: run this many full sets and compare them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, scale: 1, out: "out"} // run.sh starts the program in benchmark/
	// One core serves and the closed-loop client shares it; the machine's
	// other core is left to its other tenants. With the engine's shards on
	// both cores of a shared 2-vCPU box, a neighbour on either slowed every
	// query, and a run measured the neighbour.
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(stderr, "benchmark: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g clients=1\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.seconds)
	if *name == "all" {
		return runAll(o, *repeat, stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	res, err := runOne(w, o, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printReport(stderr, res)
	return printJSON(stdout, res)
}

func runOne(w *workload, o options, traced bool) (*result, error) {
	if traced {
		return runTraced(w, o)
	}
	return runEndToEnd(w, o)
}

// printJSON writes the driver's result line and returns the exit status:
// non-zero on any correctness or durability failure.
func printJSON(w io.Writer, res *result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			line.Correct = false
			m.value = 0
		}
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	fmt.Fprintf(w, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}

// printReport writes one run for a reader: every metric by name with its
// unit, the pass-to-pass spread, the notes, and any failures.
func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s — %s\n", res.workload.name, res.workload.shape)
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s", m.name, m.value, m.unit)
		if len(m.passes) > 1 {
			fmt.Fprintf(w, " passes %.4g", m.passes)
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
