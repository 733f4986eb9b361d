#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --repeat 5 --seconds 10    # interleaved rounds, medians and quartiles
#
# Everything the build writes (compiler cache, temporary files, the binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/servebench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go -C servebench build -o "$out/servebench" .
exec "$out/servebench" "$@"
