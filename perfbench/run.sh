#!/usr/bin/env bash
# Builds the benchmark program and hdserve from this checkout's source into
# .bench_build/, then runs the program with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every file it writes (Go build cache,
# binaries, index directories, span files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"

# Keep the toolchain's caches and config inside the checkout and off the
# network: the module has no external dependencies.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export GOTELEMETRY=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" . >&2
	go build -o "$out/bin/hdserve" github.com/hd-index/hdindex/cmd/hdserve >&2
)
exec "$out/bin/perfbench" -root "$root" -hdserve "$out/bin/hdserve" "$@"
