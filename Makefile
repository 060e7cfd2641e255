# Tier-1 gate: ./ci.sh defines it and `make ci` runs it; the stage targets
# run one stage of the same script (`make fuzz FUZZTIME=60s` for a longer
# fuzz budget).

.PHONY: ci build vet test race benchmark-test hammer chaos fuzz bench

ci:
	./ci.sh

build vet test race benchmark-test hammer chaos fuzz:
	./ci.sh $@

bench:
	go test -bench=. -benchmem -run=^$$
