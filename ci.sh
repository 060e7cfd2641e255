#!/bin/sh
# Tier-1 gate, and its one definition: `make ci` runs this script (it is a
# script so that environments without make have the same gate).
#
#   ./ci.sh                      every stage, in order
#   ./ci.sh hammer chaos         only the named stages
#   ./ci.sh loc                  non-test Go lines per package, knobs (not a gate)
#   FUZZTIME=60s ./ci.sh fuzz    the fuzz targets on a longer budget
set -eu

cd "$(dirname "$0")"

# Fuzz smoke: a short budget per target catches parser and codec
# regressions on the spot; long runs belong in a dedicated job.
FUZZTIME="${FUZZTIME:-10s}"
fuzz() {
    go test -run='^$' -fuzz="^$1\$" -fuzztime="$FUZZTIME" "$2"
}

[ $# -gt 0 ] || set -- fmt build vet test race benchmark-test bench-smoke hammer chaos fuzz
for stage; do
    case "$stage" in
    fmt)
        # Every tracked Go file as gofmt prints it; outside a git checkout,
        # every Go file under the root.
        echo "== gofmt -l"
        files=$(git ls-files '*.go' 2>/dev/null || find . -name '*.go')
        unformatted=$(gofmt -l $files)
        if [ -n "$unformatted" ]; then
            echo "$unformatted"
            echo "ci: gofmt would rewrite the files above" >&2
            exit 1
        fi
        ;;
    build)
        echo "== go build ./..."
        go build ./...
        ;;
    vet)
        # The benchmark is its own module (benchmark/go.mod), which ./...
        # from the root does not reach.
        echo "== go vet ./..."
        go vet ./...
        echo "== benchmark module: go vet ./..."
        (cd benchmark && go vet ./...)
        ;;
    test)
        echo "== go test ./..."
        go test ./...
        ;;
    race)
        echo "== go test -race ./..."
        go test -race ./...
        ;;
    benchmark-test)
        # The benchmark is its own module (benchmark/go.mod) and compiles
        # against internal/ — editdist.Distance/DistanceWithin/Metrics,
        # search, server — so tier-1 builds and smoke-tests it here rather
        # than leaving an API break to the next benchmark run.
        echo "== benchmark module: go test ./..."
        (cd benchmark && go test ./...)
        ;;
    bench-smoke)
        # One iteration of every case of the verifier's, the constrained
        # distance's, the filter's, the positional bound's, the snapshot's
        # and the join's rungs, and of the postings-vs-merge-join ablation,
        # so the benchmark a refine-, filter-, bound-, snapshot- or
        # join-path change is measured on always compiles and runs. The
        # regexes name benchmarks, not cases, so a case added to one —
        # BenchmarkDistanceWithin's big/τ=d-1, say — runs here unasked. A
        # smoke stage: it gates on nothing the numbers say.
        echo "== editdist, constrained-distance, filter-stage, positional-bound, postings, snapshot and self-join rungs: one iteration per case"
        go test -run '^$' -bench 'DistanceWithin|ConstrainedDistance' -benchtime 1x ./internal/editdist
        go test -run '^$' -bench 'FilterStage|SearchLBound|AblationPostingsVsMergeJoin|Snapshot' -benchtime 1x .
        go test -run '^$' -bench 'SelfJoin' -benchtime 1x ./internal/join
        ;;
    hammer)
        # Concurrent-query + compaction hammer: many queries on one index at
        # once, each on its own goroutine, checked against a fresh index;
        # the storage engine's epoch-snapshot certificate (concurrent
        # inserts, deletes, queries, compactions, snapshot writes); and a
        # k-NN list whose Stats must repeat run after run — under the race
        # detector on their own so a failure names the engine, not a random
        # package.
        echo "== concurrent-query + compaction hammer (-race)"
        go test -race -count=2 -run 'Hammer|ExplainBoundsRepeatable' ./internal/search
        ;;
    chaos)
        # Chaos matrix: every durability operation (insert, delete, seal,
        # compact, snapshot, rotate, trim) × every fault class (crash, short
        # write, fsync error), with a restart and a zero-acked-write-loss +
        # snapshot/WAL/live-index parity check per cell. Run under the race
        # detector so the degraded-mode prober and snapshot loop are
        # exercised for data races too.
        echo "== chaos matrix (-race)"
        go test -race -count=1 -run 'Chaos|Degraded|Fallback|TornTombstone' ./internal/server ./internal/wal
        ;;
    fuzz)
        echo "== go test -fuzz (fuzztime $FUZZTIME per target)"
        fuzz FuzzParse ./internal/tree
        fuzz FuzzParseString ./internal/xmltree
        fuzz FuzzBoundCascade ./internal/branch
        fuzz FuzzProfileKernel ./internal/branch
        fuzz FuzzDistanceWithin ./internal/editdist
        fuzz FuzzLoadIndex ./internal/search
        fuzz FuzzExactLabelTier ./internal/search
        fuzz FuzzSequenceTier ./internal/search
        fuzz FuzzCheapLevels ./internal/search
        fuzz FuzzSweep ./internal/invfile
        fuzz FuzzParseTraceparent ./internal/obs
        fuzz FuzzTraceparentMiddleware ./internal/server
        ;;
    loc)
        # The size of the system in the unit ROADMAP counts it in: non-test
        # Go lines outside benchmark/, per package and in total, then the
        # north star's comparison — the serving shell against the engine it
        # serves — and the number of values an operator can set. Not in the
        # default list — it reports, it cannot fail.
        echo "== non-test Go lines outside benchmark/"
        find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -exec wc -l {} + |
            awk '$2 != "total" { d = $2; sub("/[^/]*$", "", d); n[d] += $1; t += $1 }
                 END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
                       close("sort -k2"); printf "%7d  total\n", t
                       i = "./internal/"
                       printf "%7d  shell  = internal/obs + internal/server\n", n[i "obs"] + n[i "server"]
                       printf "%7d  engine = internal/branch + internal/editdist + internal/search\n",
                              n[i "branch"] + n[i "editdist"] + n[i "search"] }'
        flags=$(grep -c 'fs\.[A-Za-z0-9]*Var(' cmd/treesimd/main.go)
        fields=$(awk '/^type Config struct/ { in_cfg = 1; next } in_cfg && /^}/ { exit }
                      in_cfg && /^\t[A-Z][A-Za-z0-9]* / { n++ } END { print n }' internal/server/server.go)
        printf '%7d  knobs  = %d treesimd flags + %d server.Config fields\n' $((flags + fields)) "$flags" "$fields"
        ;;
    *)
        echo "ci: unknown stage '$stage'" >&2
        exit 2
        ;;
    esac
done

echo "ci: green ($*)"
