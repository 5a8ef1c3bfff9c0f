#!/bin/sh
# Extended verification: everything tier-1 runs (build + tests) plus vet,
# formatting, and the race detector over the whole module. CI runs this
# script; run it locally before sending a change.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== smoothvet"
# Project-specific analyzers (aliasing, shard confinement, publication
# immutability, determinism, clock discipline, atomic pairing, hot-path
# allocations, error hygiene); see DESIGN.md "Enforced invariants". The
# run is timed against a generous wall-clock budget: the flow-sensitive
# engine must stay cheap enough to run on every push, and a quadratic
# blow-up in the CFG or call-graph layer should fail loudly here, not
# slowly rot CI.
go build -o bin/smoothvet ./cmd/smoothvet
smoothvet_start=$(date +%s)
go vet -vettool=bin/smoothvet ./...
smoothvet_elapsed=$(( $(date +%s) - smoothvet_start ))
echo "smoothvet: ${smoothvet_elapsed}s"
if [ "$smoothvet_elapsed" -gt 120 ]; then
    echo "smoothvet took ${smoothvet_elapsed}s (budget 120s); profile the analyzers" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== go build + vet (darwin)"
# Cross-compile for a second GOOS: internal/reactor is split into a linux
# file (epoll, timerfd, splice) and the single build-only !linux stub, and
# only a cross-build catches a symbol that drifted out of the shared
# surface. Vetting the reactor and the three engines that embed it checks
# the stub surface as well as compiling it.
GOOS=darwin go build ./...
GOOS=darwin go vet ./internal/reactor ./internal/serve ./internal/lb ./internal/loadgen

echo "== perfbench build + vet"
# perfbench is a nested module (it imports this one through a replace
# directive), so ./... above never compiles it; build and vet it here so
# an API change that breaks the end-to-end benchmark fails fast. The
# binary goes to /dev/null so nothing is left in the perfbench tree.
(cd perfbench && go build -o /dev/null ./... && go vet ./...)

echo "== go test"
go test ./...

echo "== go test -race"
go test -race ./...

echo "== livecast smoke (one real TCP session)"
# netstream.Receive against a one-shard serving engine over loopback TCP:
# the example exits non-zero on any corrupt slice or a client peak buffer
# above R·D (Lemma 3.4), so the client every tool but loadgen uses is
# exercised on a real socket.
go run ./examples/livecast

echo "== loopback capacity smoke (1k sessions)"
# One real client-engine wave against a real serving engine over loopback
# TCP — the cheap end-to-end check that the sharded client reactor, the
# wire framing and the playout accounting still work together at density.
# The test also scrapes /metrics mid-wave and asserts the key series: the
# active-sessions gauge reaches the wave size and the step-lag histogram
# fills while traffic flows.
LOADGEN_SMOKE=1000 go test -count=1 -run '^TestLoopbackCapacitySmoke$' ./internal/loadgen

echo "== fleet relay smoke (1k sessions, mid-wave backend drain)"
# The same wave shape through the front tier: loadgen -> smoothlb engine
# -> two serving engines, with a graceful backend drain landing mid-wave.
# Zero client-visible failures are required across the drain, the drained
# backend's placement tail must stay bounded, and the splice-fallback
# counter must read zero — every relayed byte moved kernel-to-kernel.
LB_SMOKE=1000 go test -count=1 -run '^TestFleetSmoke$' ./internal/lb

echo "== bench + regression gate"
# Run every benchmark at the same short protocol the committed baseline was
# recorded with (-benchtime 5x at -cpu 1; BenchmarkSweepWorkers additionally
# at -cpu 4), then gate on BENCH_quick.json via cmd/benchdiff. The explicit
# -cpu keeps (name, procs) keys identical on every host, and -strict fails
# the gate when a baseline row is missing from the run, so a pinned
# benchmark cannot pass by not being compared. Allocation
# metrics are deterministic at a fixed iteration count and held tight —
# BenchmarkEngineStepDensity is recorded at -count 5 and folded to its
# median ns/op and largest B/op and allocs/op (see bench_baseline.sh) —
# the simulation core must stay allocation-free (see DESIGN.md "Memory
# layout & amortization"); wall-clock ratios stay generous because CI
# machines are noisy. Refresh the baseline with scripts/bench_baseline.sh
# after an intentional performance change.
go build -o bin/benchjson ./cmd/benchjson
go build -o bin/benchdiff ./cmd/benchdiff
./scripts/bench_baseline.sh bin/bench_current.json
# Global thresholds are generous (sync.Pool hit rates vary with GC timing,
# so pooled-arena benchmarks have some alloc jitter); the allocation-free
# core paths get tight per-benchmark rules, and the parallel sweep variants
# — whose pool misses depend on goroutine scheduling — get looser ones.
# The serving density benchmark is pinned at exactly zero steady-state
# allocations: the whole point of the compute-once layer is that a shard
# tick over 100k sessions touches no allocator at all. The client engine's
# per-step path (BenchmarkLoadgenStep) carries the same zero pin — the dual
# invariant for the receiving side — as does the observability record path
# (BenchmarkObsRecord): a metric increment, histogram observation or
# flight-recorder append must never touch the allocator. The end-to-end
# loopback waves
# get wide bounds: one op there is a full wave of real dials and sessions,
# so both timing and the dial-path allocation count wobble with the host.
bin/benchdiff -strict -baseline BENCH_quick.json -current bin/bench_current.json \
    -ns 1.5 -bytes 1.0 -bytes-slack 16384 -allocs 1.0 -allocs-slack 64 \
    -rule 'BenchmarkServerStep:allocs=0.0+4,bytes=0.0+4096' \
    -rule 'BenchmarkSimulate/*:allocs=0.0+4,bytes=0.0+4096' \
    -rule 'BenchmarkSweepWorkers/*/par:allocs=4.0+256,bytes=4.0+65536' \
    -rule 'BenchmarkEngineStepDensity/cohort/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkLoadgenStep/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkObsRecord/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkLoopback/*:ns=3.0+1000000000,allocs=0.3+8192,bytes=0.5+8388608' \
    -rule 'BenchmarkLBRelayStep/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkFleetLoopback/*:ns=3.0+1000000000,allocs=0.3+8192,bytes=0.5+8388608'

echo "verify: OK"
