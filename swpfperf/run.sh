#!/usr/bin/env bash
# Builds the benchmark and the swpfd daemon from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash swpfperf/run.sh --workload paper-full --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: binaries, the Go build cache, the go command's config
# and telemetry (XDG_CONFIG_HOME), temporary files, spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/swpfd" ]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/swpfd here)" >&2
	exit 1
fi
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/swpfd" ./cmd/swpfd
(cd "$root/swpfperf" && go build -o "$out/bin/swpfperf" .)
exec "$out/bin/swpfperf" --swpfd "$out/bin/swpfd" --spans "$out/spans" "$@"
