#!/bin/sh
# Record the benchmark suite in the committed-baseline protocol and convert
# it to benchjson format. Usage:
#
#   scripts/bench_baseline.sh [OUT.json]     (default: BENCH_quick.json)
#
# The protocol is a fixed iteration count (-benchtime 5x) so bytes/op and
# allocs/op are deterministic. Every row is keyed by (name, procs), so the
# procs are fixed explicitly rather than taken from the host: the main pass
# runs at -cpu 1, and a second pass records BenchmarkSweepWorkers at -cpu 4
# for the sweep-parallelism profile (its procs=1 rows come from the main
# pass). The same rows therefore exist on every host, whatever its core
# count.
# scripts/verify.sh runs the identical protocol and diffs the result against
# BENCH_quick.json with cmd/benchdiff; run this script (with no argument)
# and commit the result after an intentional performance change.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_quick.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go build -o bin/benchjson ./cmd/benchjson

go test -run '^$' -bench . -benchmem -benchtime 5x -cpu 1 ./... > "$tmp"
go test -run '^$' -bench '^BenchmarkSweepWorkers$' -benchmem -benchtime 5x \
    -cpu 4 . >> "$tmp"

bin/benchjson -in "$tmp" -out "$out"
echo "bench baseline written to $out"

# Record the fleet tier's direct-vs-through-LB step-lag delta next to the
# baseline: benchjson keeps only ns/bytes/allocs, so the fleet bench's
# custom metrics (direct-p99-µs, lb-p99-µs, lag-overhead-%, sessions/s)
# live in a text sidecar, refreshed on the same protocol as the baseline.
fleet="${out%.json}_fleet.txt"
if grep -E '^BenchmarkFleetLoopback' "$tmp" > "$fleet"; then
    echo "fleet lag delta written to $fleet"
else
    rm -f "$fleet"
    echo "no fleet bench lines recorded (non-linux host?)" >&2
fi
