#!/usr/bin/env bash
# Run the whole suite twice on the same tree with the same seed and fail if
# any end-to-end metric of any workload differs by more than its bound.
#
#   benchmark/selfcheck.sh [--seed N] [--reps R] [--force]
set -euo pipefail
cd "$(dirname "$0")/.."

benchmark/run.sh "$@"
cp benchmark/out/result.json benchmark/out/selfcheck-first.json
# The first suite leaves the load average high; it is our own.
benchmark/run.sh "$@" --force
cp benchmark/out/result.json benchmark/out/selfcheck-second.json
benchmark/run.sh compare benchmark/out/selfcheck-first.json benchmark/out/selfcheck-second.json --symmetric
