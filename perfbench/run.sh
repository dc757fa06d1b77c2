#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result. Outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
