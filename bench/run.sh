#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, e.g.
#
#   bash bench/run.sh -workload emp-run -seed 1 -seconds 25 -trace 0
#
# Go's build cache, temporary files and the binaries stay under
# .bench_build in the checkout; nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$build/bin" "$build/tmp"
(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
