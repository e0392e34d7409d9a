#!/usr/bin/env bash
# Builds perfbench from this source tree and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload onboard --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and run scratch state stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
# Run on one processor, the first this process may use: perfbench reads
# the time the hypervisor steals from that processor and reports
# wall-clock figures net of it.
cpu=$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//; s/[-,].*//') || cpu=
if [ -n "$cpu" ]; then
	exec taskset -c "$cpu" "$out/perfbench" -out "$out" "$@"
fi
exec "$out/perfbench" -out "$out" "$@"
