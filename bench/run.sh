#!/bin/bash
# run.sh — the command BENCHMARK.json names. It builds the benchmark from
# the checkout it is started in, keeping the compiler's cache inside the
# checkout, and runs it with the arguments it was given:
#
#   bash bench/run.sh --workload cp_tcp --seed 3 --seconds 10 --trace 0
#
# In a directory that holds only BENCHMARK.json and bench/ the build
# fails (there is no module to build against) and so does this script.
set -eu
build=$PWD/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local
go build -o "$build/drtpbench" ./bench
exec "$build/drtpbench" "$@"
