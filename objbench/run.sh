#!/usr/bin/env bash
# Builds the objmig benchmark from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash objbench/run.sh --workload invoke-mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/objbench" && go build -o "$build/objbench" .)
exec "$build/objbench" "$@"
