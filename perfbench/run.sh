#!/usr/bin/env bash
# Builds brbench, brstored and perfbench from the checkout in
# the current directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOENV=off GOTELEMETRY=off GOWORK=off

go build -o "$out/bin/brbench" ./cmd/brbench
go build -o "$out/bin/brstored" ./cmd/brstored
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --root "$root" --bin "$out/bin" "$@"
