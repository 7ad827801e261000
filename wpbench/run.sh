#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash wpbench/run.sh --workload gap-bfs --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build
# cache and the benchmark's scratch state all live under
# $CARGO_TARGET_DIR (default .bench_build), so the run reads and writes
# nothing outside the checkout. Without the simulator sources next to
# this directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/work"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/wpbench" .)
exec "$out/wpbench" -workdir "$out/work" "$@"
