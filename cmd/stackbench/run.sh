#!/usr/bin/env bash
# Entry point BENCHMARK.json names: build stackbench from source, then run
# it with the given flags. The binary, the Go build cache and the compiler's
# temporary files all go under cmd/stackbench/out/ (git-ignored by the
# .gitignore inside it), so a run reads and writes nothing outside the
# benchmark's own directory. The leading dot keeps `go build ./...` out of
# the cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="$root/cmd/stackbench/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/stackbench" ./cmd/stackbench
exec "$build/stackbench" "$@"
