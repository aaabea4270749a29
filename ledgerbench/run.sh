#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash ledgerbench/run.sh --workload serve_hit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary service directories, span files) stays under .bench_build
# in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
       GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off
(cd "$root/ledgerbench" && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" "$@"
