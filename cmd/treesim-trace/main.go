// Command treesim-trace browses a running treesimd's flight recorder from
// the terminal — the operator's view of "what was slow and why" without a
// tracing backend.
//
//	treesim-trace list                          # retained traces, newest first
//	treesim-trace list -endpoint /v1/knn -min 5ms -error -limit 10
//	treesim-trace get r0000002a                 # one trace, span tree pretty-printed
//	treesim-trace get 4bf92f3577b34da6a3ce929d0e0e4736   # same, by W3C trace id
//
// The debug endpoints are loopback-only, so -addr defaults to
// localhost; point it through a port-forward for a remote node. Every
// request the tool makes carries a W3C traceparent header of its own,
// so the server's request log ties an operator's pokes to one trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"text/tabwriter"
	"time"

	"treesim/internal/obs"
	"treesim/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: treesim-trace [-addr host:port] <command>

commands:
  list [-endpoint E] [-min D] [-error] [-limit N]   list retained traces
  get <request-id | trace-id>                       print one trace's span tree`)
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("treesim-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "treesimd address (debug endpoints are loopback-only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		return usage(stderr)
	}
	base := "http://" + *addr
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "list":
		return runList(base, rest, stdout, stderr)
	case "get":
		return runGet(base, rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "treesim-trace: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

// getInto fetches url with a fresh W3C trace context on the request —
// outbound calls are traced like any other client's — and decodes the 200
// JSON body into out, surfacing the server's error envelope on non-200.
func getInto(url string, out any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("traceparent", obs.NewTraceContext().Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var er server.ErrorResponse
		if json.Unmarshal(body, &er) == nil && er.Error.Code != "" {
			return fmt.Errorf("%s: %s (%s)", resp.Status, er.Error.Message, er.Error.Code)
		}
		return fmt.Errorf("%s: %s", resp.Status, body)
	}
	return json.Unmarshal(body, out)
}

func runList(base string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("treesim-trace list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	endpoint := fs.String("endpoint", "", "only traces for this endpoint")
	minDur := fs.Duration("min", 0, "only traces at least this slow")
	errOnly := fs.Bool("error", false, "only errored requests")
	limit := fs.Int("limit", 0, "cap the listing (0 = all retained)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	url := fmt.Sprintf("%s/debug/traces?endpoint=%s&min_us=%d&limit=%d",
		base, *endpoint, minDur.Microseconds(), *limit)
	if *errOnly {
		url += "&error=1"
	}
	var resp server.DebugTracesResponse
	if err := getInto(url, &resp); err != nil {
		fmt.Fprintf(stderr, "treesim-trace: %v\n", err)
		return 1
	}
	st := resp.Stats
	fmt.Fprintf(stdout, "recorder: %d/%d retained (%d error, %d slow, %d baseline), %d offered, %d dropped, slow threshold %v\n",
		st.Retained, st.Capacity, st.Errors, st.Slow, st.Baseline,
		st.Offered, st.Dropped, time.Duration(st.ThresholdUS)*time.Microsecond)
	if len(resp.Traces) == 0 {
		fmt.Fprintln(stdout, "no matching traces")
		return 0
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "REQUEST\tTRACE\tENDPOINT\tSTATUS\tCLASS\tDURATION\tSTART")
	for _, tr := range resp.Traces {
		class := string(tr.Class)
		if tr.Degraded {
			class += "+degraded"
		}
		trace := tr.TraceID
		if trace == "" {
			trace = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%v\t%s\n",
			tr.RequestID, trace, tr.Endpoint, tr.Status, class,
			time.Duration(tr.DurationUS)*time.Microsecond,
			tr.Start.Format(time.RFC3339))
	}
	tw.Flush()
	return 0
}

func runGet(base string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: treesim-trace get <request-id | trace-id>")
		return 2
	}
	var tr obs.RetainedTrace
	if err := getInto(base+"/debug/traces/"+args[0], &tr); err != nil {
		fmt.Fprintf(stderr, "treesim-trace: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s %s status=%d class=%s dur=%v (slow threshold %v)\n",
		tr.RequestID, tr.Endpoint, tr.Status, tr.Class,
		time.Duration(tr.DurationUS)*time.Microsecond,
		time.Duration(tr.ThresholdUS)*time.Microsecond)
	if tr.TraceID != "" {
		fmt.Fprintf(stdout, "trace_id: %s\n", tr.TraceID)
	}
	obs.FprintSpanTree(stdout, tr.Trace)
	if tr.Explain != nil {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		fmt.Fprintln(stdout, "explain:")
		enc.Encode(tr.Explain)
	}
	return 0
}
