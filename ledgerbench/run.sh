#!/usr/bin/env bash
# Builds the layer-ledger benchmark from this checkout's source and runs
# it with the given arguments. Run it from the repository root:
#
#   bash ledgerbench/run.sh --workload incore --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build and module caches, the go command's
# own configuration and the spill files stay under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/ledgerbench" && go build -o "$build/ledgerbench" .)
exec "$build/ledgerbench" -build-dir "$build" "$@"
