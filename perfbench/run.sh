#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the root
# of a checkout) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ra-big --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans all go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out" "$@"
