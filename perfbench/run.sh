#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload loadgen --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build at the
# checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"

# The benchmark module imports the repository's packages through a
# replace of ../, so the build fails unless it sits in a checkout.
(cd "$root/perfbench" && go build -o "$build/perfbench.new" .)
mv -f "$build/perfbench.new" "$build/perfbench"

cd "$root"
exec "$build/perfbench" --trace-dir "$build" "$@"
