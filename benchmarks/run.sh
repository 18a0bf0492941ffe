#!/usr/bin/env bash
# Builds the harness into <checkout>/.bench_build and runs it from the
# checkout root, forwarding every argument. The Go build cache lives in
# the checkout too, so nothing outside it is written; the toolchain is
# pinned to the local one with the proxy off, so nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/fmossim-bench" .) 1>&2
cd "$root"
exec "$build/fmossim-bench" "$@"
