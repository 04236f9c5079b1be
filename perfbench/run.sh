#!/usr/bin/env bash
# Builds topod and the benchmark from this checkout, then runs one
# benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
#
# Every build output and run file stays under .bench_build/ in the
# checkout (Go build cache included), so the run touches nothing
# outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/topod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/topod and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# The Go toolchain's caches, temporary files and its user config
# (telemetry counters) all go under $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/topod" ./cmd/topod
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -topod "$out/bin/topod" -work "$out/run" -repo "$root" "$@"
