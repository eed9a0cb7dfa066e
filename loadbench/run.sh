#!/usr/bin/env bash
# Builds threatserver, threatrouter and the load generator from this
# checkout's sources, then runs one benchmark workload:
#
#   bash loadbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and run
# artifact stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
test -f "$root/go.mod" -a -d "$root/cmd/threatserver" || {
	echo "run.sh: run from the repository root (no go.mod or cmd/threatserver here)" >&2
	exit 1
}
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
# Keep the Go build cache, temporary files and toolchain telemetry
# inside the checkout, and never fetch a toolchain or module.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go build -o "$out/bin/" ./cmd/threatserver ./cmd/threatrouter
(cd "$root/loadbench" && go build -o "$out/bin/loadbench" .)
exec "$out/bin/loadbench" -bin "$out/bin" -work "$out/run" "$@"
