#!/bin/sh
# Run the full benchmark harness (one testing.B per table/figure of the
# paper, with -benchmem) and emit machine-readable results as
# BENCH_<date>.json in the repository root.
#
#   ./scripts/bench.sh                 full run (default -benchtime)
#   BENCHTIME=1x ./scripts/bench.sh    one iteration per benchmark (smoke)
#   LABEL=after ./scripts/bench.sh     tag the JSON with a label
set -eu

cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1x}"
label="${LABEL:-}"
date="$(date +%Y-%m-%d)"
out="BENCH_${date}${label:+_$label}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -bench=. -benchmem -benchtime="$benchtime" -timeout 60m . | tee "$raw"
go run ./cmd/teabench -label "$label" -date "$date" -o "$out" < "$raw"
echo "wrote $out"

# Codec benchmarks (internal/trace): encode/decode and the suite byte
# totals, written as a separate _codec file so `make bench-codec` and
# the check.sh codec gate share one baseline format.
codec_out="BENCH_${date}_codec${label:+-$label}.json"
go test ./internal/trace -run='^$' -bench='^BenchmarkCodec' -benchmem \
	-benchtime="$benchtime" -timeout 30m | tee "$raw"
go run ./cmd/teabench -label "codec${label:+-$label}" -date "$date" -o "$codec_out" < "$raw"
echo "wrote $codec_out"
