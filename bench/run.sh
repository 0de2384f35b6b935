#!/usr/bin/env bash
# Builds bench/rlperf from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash bench/run.sh --workload cold-exact --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the run's scratch volumes all live
# in .bench_build/ at the repository root, so nothing is written outside
# the checkout. The build fails (and the script exits non-zero without
# printing a result) when the module under bench/ cannot see the
# repository's go.mod next to it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/rlperf" ./rlperf) >&2
cd "$root"
exec "$out/rlperf" "$@"
