#!/usr/bin/env bash
# Builds the benchmark driver and the two service binaries from the
# checkout's sources, then starts the driver with the given arguments.
# Every build product (Go build cache included) and every scratch file
# stays under <checkout>/.bench_build, so a run reads and writes only
# inside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/eagr-serve" ]; then
	echo "bench/run.sh: $root is not a checkout of the repository (no go.mod / cmd/eagr-serve); nothing to measure" >&2
	exit 3
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"           # no module is downloaded; this is where the go command would put one
export XDG_CONFIG_HOME="$build/config"  # the go command keeps its telemetry counters under the user's config directory
export GOTOOLCHAIN=local
export GOWORK=off

# One go build per module; both are incremental through GOCACHE, so only
# the first run in a checkout pays for compilation.
(cd "$root" && go build -o "$build/bin/" ./cmd/eagr-serve ./cmd/eagr-router) >&2
(cd "$here" && go build -o "$build/bin/eagr-benchmark" .) >&2

exec "$build/bin/eagr-benchmark" -root "$root" -bin "$build/bin" "$@"
