package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef declares one end-to-end metric; BENCHMARK.json carries the
// same table (the smoke test holds the two together).
type metricDef struct {
	name, unit string
	higher     bool    // better when higher
	bound      float64 // relative worsening that counts as a regression
}

var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"heap_mb", "MiB", false, 0.10},
	{"query_p50_ms", "ms", false, 0.25},
	{"query_p90_ms", "ms", false, 0.25},
	{"insert_p50_ms", "ms", false, 0.25},
	{"throughput_rps", "req/s", true, 0.25},
}

// runAll runs every workload in both modes, repeat times over, printing a
// report per run; with two or more sets it closes with the agreement
// table of the first two. It returns non-zero on any failure.
func runAll(o options, repeat int, stdout, stderr io.Writer) int {
	status := 0
	sets := make([]map[string]*result, repeat)
	for s := range sets {
		sets[s] = map[string]*result{}
		fmt.Fprintf(stdout, "\n#### set %d of %d\n", s+1, repeat)
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := runOne(w, o, traced)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
					return 1
				}
				printReport(stdout, res)
				if res.failed > 0 {
					status = 1
				}
				if !traced {
					sets[s][w.name] = res
				}
			}
		}
	}
	if repeat >= 2 {
		printAgreement(stdout, sets[0], sets[1])
	}
	return status
}

// printAgreement compares two sets of runs of the same code: per workload
// and end-to-end metric both values, how much worse the second is than
// the first, the metric's bound, and ok — or unresolved, when run-to-run
// noise alone exceeds the bound.
func printAgreement(w io.Writer, a, b map[string]*result) {
	fmt.Fprintf(w, "\n#### agreement of two sets (same code, same seed)\n")
	fmt.Fprintf(w, "  %-12s %-16s %12s %12s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	for _, wl := range workloads {
		for i, def := range endToEnd {
			x, y := a[wl.name].metrics[i].value, b[wl.name].metrics[i].value
			worse := ratio(y-x, x)
			if def.higher {
				worse = ratio(x-y, x)
			}
			verdict := "ok"
			if math.Abs(worse) > def.bound {
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "  %-12s %-16s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n",
				wl.name, def.name, x, y, 100*worse, 100*def.bound, verdict)
		}
	}
}
