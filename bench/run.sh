#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload engine-mix --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write — the binary, Go's build cache,
# its module and telemetry directories, the last traced run's Chrome trace
# (trace.json) — goes under .bench_build/ in the checkout, which .gitignore
# names; nothing is fetched. The first build in a checkout compiles the standard library too
# (about half a minute); later ones take a fraction of a second.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOSUMDB=off
go build -C "$root/bench" -o "$out/bench" .
cd "$root"
exec "$out/bench" -trace-out "$out/trace.json" "$@"
