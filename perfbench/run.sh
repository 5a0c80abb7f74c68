#!/usr/bin/env bash
# Builds usimd, usim-index and the benchmark from this checkout, then
# runs the benchmark with the arguments given, e.g.
#   bash perfbench/run.sh --workload hot-score --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare --parent DIR --change DIR
# Every file it writes, the Go build cache included, stays under
# .bench_build in the repository root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/usimd ]; then
	echo "perfbench: run from a checkout of the repository (no go.mod or cmd/usimd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/bin/" ./cmd/usimd ./cmd/usim-index >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
