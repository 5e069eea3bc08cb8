#!/usr/bin/env bash
# Builds the uwpos benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload round --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and every output stay under .bench_build
# in the checkout; the Go toolchain is only read.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
commit=none
if [ -e "$root/.git" ] && command -v git >/dev/null; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" --root "$root" --commit "$commit" "$@"
