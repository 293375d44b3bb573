#!/usr/bin/env bash
# Builds the ccperf benchmark from source and runs it with the given flags:
#
#   bash ccperf/run.sh --workload solve-families --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Everything the build and the run write —
# the Go build cache, temporary files, the binary, WAL directories and
# span files — stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/home"

export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/gotmp"
export GOPATH="${out}/gopath"
export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

go -C "${root}/ccperf" build -o "${out}/ccperf" . >&2
exec "${out}/ccperf" "$@"
