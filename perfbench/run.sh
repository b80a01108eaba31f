#!/usr/bin/env bash
# Builds deviant, deviantd and the perfbench load generator from the
# sources in the current directory (the root of a deviant checkout),
# then runs perfbench with the arguments given:
#
#   bash perfbench/run.sh --workload batch-cold --seed 1 --seconds 26 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout, including Go's build cache. Build output goes to stderr,
# so the last line on stdout is perfbench's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/" ./cmd/deviant ./cmd/deviantd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
