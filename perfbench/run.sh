#!/bin/sh
# Build the benchmark from source and run it; start it from the root of a
# checkout:
#
#   sh perfbench/run.sh --workload drill|serve|refine --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh compare OLD NEW
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout (the dune cache is off, so nothing lands in the home
# directory). The build's own output goes to stderr; stdout carries only
# the benchmark's report, ending with the one-line JSON result.
set -eu
cd "$(dirname "$0")/.."
mkdir -p .bench_build
dune build --root . --cache=disabled --build-dir "$PWD/.bench_build/dune" --display quiet \
  ./perfbench/main.exe 1>&2
exec ./.bench_build/dune/default/perfbench/main.exe "$@"
