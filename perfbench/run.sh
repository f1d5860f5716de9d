#!/usr/bin/env bash
# Builds perfbench from source and runs it from the repository root.
# Every file the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary and the benchmark's
# scratch files. The build needs the cbws module one directory up; in a
# directory holding only the benchmark it fails, and so does this script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
