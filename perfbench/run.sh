#!/usr/bin/env bash
# Builds the benchmark from the source in the current directory (the root
# of a checkout) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload star-sync --seed 1 --seconds 20 --trace 0
#
# Build products and the Go build cache go under .bench_build in the
# checkout. The build fails, and the script exits non-zero without running
# anything, when the repository's sources are not there.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
