#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload run-gcc --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare bench/results/seed1-a.json bench/results/seed1-b.json
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the Go tool's home and temporary
# directories, the binary, and the run's scratch stores. The build is
# offline (GOPROXY=off): the driver imports only the standard library and
# this repository's packages.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -C bench -o "$out/clgpbench" .
exec "$out/clgpbench" "$@"
