#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload run-lockstep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.  The binary and the Go build cache go
# to .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout.  The build log goes to stderr, so the last line
# of stdout stays the result object.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .) >&2
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
cd "$root"
exec "$out/perfbench" -out "$out" -commit "$commit" "$@"
