#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes — build cache, binary, WAL scratch, trace artefacts —
# stays under benchmark/out.
set -eu
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp"
export GOPATH="$PWD/out/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o out/benchmark .
exec ./out/benchmark "$@"
