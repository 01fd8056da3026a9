#!/usr/bin/env bash
# Builds the two-party session benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the binary) and the span files of traced runs land in
# .bench_build/ under the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
