#!/usr/bin/env bash
# Builds the whole-stack benchmark from source and runs it. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload net-dur-inmem --seed 7 --seconds 20 --trace 0
#
# The build cache, the binary and the span files all stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
