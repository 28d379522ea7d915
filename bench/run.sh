#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout
# and runs it with the arguments given. Go's build cache and the
# toolchain's own files (telemetry counters) are kept there too, so
# nothing is written outside the checkout. The binary is relinked only
# when a source file changed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
(cd "$here" && GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOWORK=off go build -o "$out/bench" .)
exec "$out/bench" "$@"
