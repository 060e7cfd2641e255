#!/bin/sh
# Tier-1 gate: build, vet, test, and race-test the whole module.
# Equivalent to `make ci`; kept as a shell script for environments
# without make.
set -eu

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

# The benchmark is its own module (benchmark/go.mod) and compiles against
# internal/ — editdist.Distance/DistanceWithin/Metrics, search, server —
# so tier-1 builds and smoke-tests it here rather than leaving an API break
# to the next benchmark run.
echo "== benchmark module: go test ./..."
(cd benchmark && go test ./...)

# Shard + compaction hammer: the parallel engine's exactness certificate
# (forced over-sharding, shared worker pool, concurrent queries) and the
# storage engine's epoch-snapshot certificate (concurrent inserts,
# deletes, queries, compactions, snapshot writes) — run under the race
# detector on their own so a failure names the engine, not a random
# package.
echo "== shard + compaction hammer (-race)"
go test -race -count=2 -run 'Shard|Hammer' ./internal/search

# Chaos matrix: every durability operation × every fault class, with a
# restart and a zero-acked-write-loss + parity check per cell. Run under
# the race detector so the degraded-mode prober and snapshot loop are
# exercised for data races too.
echo "== chaos matrix (-race)"
go test -race -count=1 -run 'Chaos|Degraded|Fallback|TornTombstone' ./internal/server ./internal/wal

# Serving-benchmark smoke: a tiny fixed-seed run proves the end-to-end
# harness works; real numbers come from `make bench-server`. The run
# also exercises the flight recorder: benchserver GETs /debug/traces
# and /debug/slo against its server and writes what it saw into the
# report's trace_recorder section — so check that section is present
# and the ring actually retained traces.
echo "== benchserver smoke (includes /debug/traces + /debug/slo)"
SMOKE_BENCH="$(mktemp /tmp/bench_server.XXXXXX.json)"
go run ./cmd/benchserver -n 200 -queries 20 -out "$SMOKE_BENCH"
grep -q '"trace_recorder"' "$SMOKE_BENCH" || {
    echo "ci: smoke report has no trace_recorder section" >&2; exit 1; }
grep -q '"retained": 0,' "$SMOKE_BENCH" && {
    echo "ci: flight recorder retained nothing during the smoke" >&2; exit 1; }

# The smoke run also stands up an in-process OTLP/JSON collector and
# drives a fully-sampled workload through the exporter: benchserver
# itself fails if the collector rejects a batch, so here it is enough
# to check the section exists, at least one batch was delivered, and
# nothing was dropped on the floor.
grep -q '"otlp_export"' "$SMOKE_BENCH" || {
    echo "ci: smoke report has no otlp_export section" >&2; exit 1; }
grep -q '"batches": 0,' "$SMOKE_BENCH" && {
    echo "ci: exporter delivered no OTLP batches during the smoke" >&2; exit 1; }
grep -q '"dropped": 0,' "$SMOKE_BENCH" || {
    echo "ci: exporter dropped traces during the smoke" >&2; exit 1; }

# The smoke run also measures the bounded verification engine: on this
# workload the refine stage must have cut at least one verification
# short via the O(n) pre-checks and at least one via a DP early abort,
# and the DP cells actually touched must be strictly below what full
# verification of the same pairs would cost.
grep -q '"bounded_refine"' "$SMOKE_BENCH" || {
    echo "ci: smoke report has no bounded_refine section" >&2; exit 1; }
grep -q '"refine_aborted_total": 0,' "$SMOKE_BENCH" && {
    echo "ci: bounded refine never aborted a DP during the smoke" >&2; exit 1; }
grep -q '"precheck_rejects_total": 0,' "$SMOKE_BENCH" && {
    echo "ci: bounded refine pre-checks rejected nothing during the smoke" >&2; exit 1; }
cells=$(sed -n 's/^ *"dp_cells_total": \([0-9][0-9]*\).*/\1/p' "$SMOKE_BENCH" | head -1)
full=$(sed -n 's/^ *"dp_cells_full_total": \([0-9][0-9]*\).*/\1/p' "$SMOKE_BENCH" | head -1)
[ -n "$cells" ] && [ -n "$full" ] && [ "$cells" -lt "$full" ] || {
    echo "ci: bounded refine touched $cells of $full DP cells; want strictly fewer" >&2; exit 1; }

# Advisory bench diff: compare the committed full-size report against the
# smoke run. The configurations differ (and CI machines are noisy), so a
# flagged regression is a prompt to run `make bench-diff` properly, never
# a gate — hence the `|| true`.
if [ -f BENCH_server.json ]; then
    echo "== benchdiff (advisory)"
    go run ./cmd/benchdiff BENCH_server.json "$SMOKE_BENCH" || true
fi

# Fuzz smoke: a short budget per target catches parser and codec
# regressions on the spot; long runs belong in a dedicated job.
FUZZTIME="${FUZZTIME:-10s}"
echo "== go test -fuzz (fuzztime $FUZZTIME per target)"
go test -run='^$' -fuzz='^FuzzParse$' -fuzztime="$FUZZTIME" ./internal/tree
go test -run='^$' -fuzz='^FuzzParseString$' -fuzztime="$FUZZTIME" ./internal/xmltree
go test -run='^$' -fuzz='^FuzzBoundCascade$' -fuzztime="$FUZZTIME" ./internal/branch
go test -run='^$' -fuzz='^FuzzProfileKernel$' -fuzztime="$FUZZTIME" ./internal/branch
go test -run='^$' -fuzz='^FuzzDistanceWithin$' -fuzztime="$FUZZTIME" ./internal/editdist
go test -run='^$' -fuzz='^FuzzLoadIndex$' -fuzztime="$FUZZTIME" ./internal/search
go test -run='^$' -fuzz='^FuzzManifest$' -fuzztime="$FUZZTIME" ./internal/segstore
go test -run='^$' -fuzz='^FuzzParseTraceparent$' -fuzztime="$FUZZTIME" ./internal/obs
go test -run='^$' -fuzz='^FuzzTraceparentMiddleware$' -fuzztime="$FUZZTIME" ./internal/server

echo "ci: all green"
