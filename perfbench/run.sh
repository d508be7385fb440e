#!/usr/bin/env bash
# Builds the benchmark from the checkout around this directory and runs it
# with the given arguments, for example
#
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh -selfcheck
#
# The binary, the Go caches and every scratch file of a run stay under
# .bench_build in the checkout root. Without the repository's sources next to
# this directory the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
