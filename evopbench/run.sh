#!/usr/bin/env bash
# Builds the EVOp benchmark from the sources of the checkout this script
# sits in, then runs it with the given arguments. Run from the checkout
# root:
#
#   bash evopbench/run.sh --workload model-widget --seed 1 --seconds 10 \
#       --trace 0 --client-rate 1e9 --client-burst 1e9
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout. A tree without the repository's sources fails the build, so
# the script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
state="$root/.bench_build/evopbench"
mkdir -p "$state/tmp"
export GOCACHE="$state/gocache" GOPATH="$state/gopath" GOTMPDIR="$state/tmp" TMPDIR="$state/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$state/evopbench" .) >&2
cd "$root"
exec "$state/evopbench" "$@"
