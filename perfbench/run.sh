#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig4-variants --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build/ in the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
# Every run measures the program's defaults: no stage cache, worker count
# or fault injection comes in from the caller's environment.
unset JPG_CACHE JPG_CACHE_DIR JPG_WORKERS JPG_FAULTS

# The commit goes into every result record. A checkout that is not a git
# repository (or sits inside another one) records "unknown".
commit=unknown
if [ -d "$root/.git" ]; then
	export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
	if commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
		git -C "$root" diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"
	else
		commit=unknown
	fi
fi
export PERFBENCH_COMMIT="$commit"

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
