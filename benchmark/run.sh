#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments,
# e.g. `bash benchmark/run.sh --workload commute-64 --seed 1 --seconds 8`.
# The build goes to $CARGO_TARGET_DIR when set (default _build) with dune's
# shared cache off, so nothing is written outside the checkout. Build output
# goes to stderr; stdout carries only the benchmark's report.
set -eu
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-_build}"
dune build --root . --build-dir "$build_dir" --cache=disabled \
  ./benchmark/run.exe 1>&2
exec "$build_dir/default/benchmark/run.exe" --spec BENCHMARK.json "$@"
