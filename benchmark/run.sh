#!/bin/bash
# Entry point of the benchmark (the "command" of BENCHMARK.json): builds
# the harness into the checkout's build directory and runs it with the
# arguments given.  Every build output, the Go build cache and the go
# command's own counter files (it keeps them under the user's
# configuration directory) included, stays inside the checkout.
set -eu
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p .bench_build/bin
go -C benchmark build -o ../.bench_build/bin/harness .
exec .bench_build/bin/harness "$@"
