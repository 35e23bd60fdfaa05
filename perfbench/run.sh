#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload route-bulk --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, binary) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
