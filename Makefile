# Tier-1 gate: ./ci.sh defines it and `make ci` runs it; the stage targets
# run one stage of the same script (`make fuzz FUZZTIME=60s` for a longer
# fuzz budget; `make loc` prints non-test Go lines per package and is not
# part of the gate).

.PHONY: ci fmt build vet test race benchmark-test bench-smoke hammer chaos fuzz loc bench

ci:
	./ci.sh

fmt build vet test race benchmark-test bench-smoke hammer chaos fuzz loc:
	./ci.sh $@

bench:
	go test -bench=. -benchmem -run=^$$
