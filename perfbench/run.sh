#!/bin/sh
# Build the benchmark from source in this checkout, then run it:
#
#   sh perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Workloads: sweep, check, serve_cold, serve_warm. Build output goes to
# standard error; the report and its final JSON line go to standard
# output. Everything the run writes stays under _build/ and _perfbench/.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
