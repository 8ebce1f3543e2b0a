#!/bin/sh
# run.sh — build the CLIs and the benchmark from source, then run the
# benchmark with the given arguments. Run it from the repository root:
#
#   sh perfbench/run.sh --workload table2 --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, binaries, scratch corpora,
# saved results) stays under .bench_build/ in the checkout. Build output
# goes to standard error, so the last line of standard output is the
# benchmark's JSON result.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/sierra ./cmd/corpusgen >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
