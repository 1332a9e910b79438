#!/usr/bin/env bash
# The benchmark's command of record (BENCHMARK.json "command"), run from the
# repository root. It builds ./benchmark from source into .bench_build/ with
# the Go build cache, the toolchain's scratch and config directories kept there too,
# so nothing is written outside the checkout, then runs the binary with the
# caller's arguments. Telemetry is switched off in that config directory: with
# it on, the go command starts a detached child of itself (its own session,
# not waited for) to roll up its counters whenever the directory is fresh, and
# that child outlives this script.
# `go run ./benchmark ...` is the same program with the cache wherever the Go
# toolchain keeps it.
set -euo pipefail
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache"
export GOTMPDIR="$PWD/.bench_build/tmp"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
