#!/usr/bin/env bash
# Builds aeropackd and the benchmark program from the checkout this
# script sits in, then runs the program with the arguments given here, e.g.
#
#   bash aeropackbench/run.sh --workload board-cold --seed 1 --seconds 45 --trace 0
#
# Run it from the root of the checkout.  Everything it builds or writes
# (Go build cache, temporary build files, Go's own configuration and
# telemetry, binaries, the Chrome trace) goes under .bench_build/.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -o "$out/aeropackd" ./cmd/aeropackd >&2
(cd "$bench_dir" && go build -o "$out/aeropackbench" .) >&2

exec "$out/aeropackbench" -aeropackd "$out/aeropackd" -out "$out" "$@"
