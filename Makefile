# Tier-1 gate: `make ci` is what every change must keep green.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build vet test race benchmark-test hammer chaos bench bench-server bench-diff fuzz ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark is its own module and compiles against internal/: build and
# smoke-test it in tier-1 so an API break is not left to the next run.
benchmark-test:
	cd benchmark && $(GO) test ./...

# Parallel-engine and storage-engine certificate: the shard invariance
# tests and the compaction hammer (concurrent inserts, deletes, queries,
# compactions and snapshots) under the race detector, repeated.
hammer:
	$(GO) test -race -count=2 -run 'Shard|Hammer' ./internal/search

# Fault-tolerance certificate: the chaos matrix drives every durability
# operation (insert, delete, seal, compact, snapshot, rotate, trim)
# through every fault class (crash, short write, fsync error), restarts
# after each cell, and asserts zero acked-write loss plus
# snapshot/WAL/live-index parity — all under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Degraded|Fallback|TornTombstone' ./internal/server ./internal/wal

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# End-to-end serving benchmark: fixed-seed workload over real HTTP against
# an in-process server; writes client percentiles + server stage means.
bench-server:
	$(GO) run ./cmd/benchserver -out BENCH_server.json

# Compare two benchmark reports (defaults: the committed BENCH_server.json
# against a fresh run). Exits 3 on a >20% p99 regression.
#   make bench-diff OLD=BENCH_server.json NEW=BENCH_server.new.json
OLD ?= BENCH_server.json
NEW ?= BENCH_server.new.json
bench-diff:
	test -f $(NEW) || $(GO) run ./cmd/benchserver -out $(NEW)
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/tree
	$(GO) test -run='^$$' -fuzz='^FuzzParseString$$' -fuzztime=$(FUZZTIME) ./internal/xmltree
	$(GO) test -run='^$$' -fuzz='^FuzzBoundCascade$$' -fuzztime=$(FUZZTIME) ./internal/branch
	$(GO) test -run='^$$' -fuzz='^FuzzProfileKernel$$' -fuzztime=$(FUZZTIME) ./internal/branch
	$(GO) test -run='^$$' -fuzz='^FuzzDistanceWithin$$' -fuzztime=$(FUZZTIME) ./internal/editdist
	$(GO) test -run='^$$' -fuzz='^FuzzLoadIndex$$' -fuzztime=$(FUZZTIME) ./internal/search
	$(GO) test -run='^$$' -fuzz='^FuzzManifest$$' -fuzztime=$(FUZZTIME) ./internal/segstore
	$(GO) test -run='^$$' -fuzz='^FuzzParseTraceparent$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzTraceparentMiddleware$$' -fuzztime=$(FUZZTIME) ./internal/server

ci: build vet test race benchmark-test hammer chaos fuzz
