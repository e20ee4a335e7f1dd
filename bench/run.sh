#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command BENCHMARK.json
# names. Arguments go to the program (see `-h`); with none it runs every
# workload, timed then traced, and prints every metric.
#
# Everything the build and the run write stays under bench/out/: the
# binary, the Go build cache, scratch stores, traces and results.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
export GOCACHE="$here/out/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o out/bench .)
exec "$here/out/bench" -out "$here/out" "$@"
