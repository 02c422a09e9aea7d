#!/bin/sh
# Builds pm2perf from source and runs it with the given flags, e.g. from
# the repository root:
#
#   sh cmd/pm2perf/run.sh --workload ring --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file the toolchain
# writes stay under .bench_build/ in the current directory, so a run
# touches nothing outside the checkout. Outside a Go module (no go.mod
# here) the build fails and the script exits non-zero.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -o "$out/pm2perf" ./cmd/pm2perf
exec "$out/pm2perf" "$@"
