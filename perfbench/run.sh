#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload.
#
#   bash perfbench/run.sh --workload paper|stream|fleet|churn --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the binary, spans of traced runs) stays under the build
# directory: $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2

exec "$build/perfbench" --root "$root" --out "$build/spans" "$@"
