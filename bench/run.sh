#!/usr/bin/env bash
# Builds chipbench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload table2 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# included, stays under .bench_build/ in the current directory, and so do
# the go command's telemetry counters (kept under the user config
# directory) and its GOPATH.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
# perfhist records the git revision; keep git from searching above the
# checkout for a repository.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

go -C bench build -o "$build/chipbench" ./cmd/chipbench
exec "$build/chipbench" "$@"
