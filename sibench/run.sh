#!/usr/bin/env bash
# Builds sibench from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   bash sibench/run.sh --workload wh-router --seed 1 --seconds 10 --trace 0
#
# Everything it writes — the Go build cache, the binary, index files
# and traces — stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
  GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/sibench" .)
exec "$build/sibench" "$@"
