#!/usr/bin/env bash
# Builds the ppledger benchmark driver from source and runs it from the
# root of the checkout, passing every argument through. Build caches and
# temporary files stay under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/ppledger" && go build -o "$build/ppledger" .)
cd "$root"
exec "$build/ppledger" "$@"
