#!/usr/bin/env bash
# The driver's entry point: BENCHMARK.json runs `bash bench/run.sh` from the
# checkout root. The benchmark is its own Go module, so it builds and runs
# from its own directory.
cd "$(dirname "$0")" && exec go run . "$@"
