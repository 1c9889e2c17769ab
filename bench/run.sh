#!/bin/bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments; BENCHMARK.json's command. Nothing is read or written outside
# the checkout: the Go build cache, the temp dir and the binary all live
# under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark builds against the repository's packages" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/kona-bench" ./bench
exec "$build/kona-bench" "$@"
