#!/usr/bin/env bash
# Builds evabench from source in this checkout, then runs it with the
# given arguments, e.g.
#   bash benchmark/run.sh --workload serve-batched --seed 1 --seconds 20 --trace 0
# Build output goes to stderr so the last line on stdout stays the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./benchmark/evabench.exe 1>&2
exec ./_build/default/benchmark/evabench.exe "$@"
