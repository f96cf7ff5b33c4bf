#!/usr/bin/env bash
# Build the benchmark (release) and run it.
#
#   benchmark/run.sh                                  the suite: every workload, untraced and traced
#   benchmark/run.sh --workload W --seed N            one workload of the suite, another seed
#   benchmark/run.sh --reps 5                         five untraced runs per workload (spread in result.json)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                     one run in this process; last line is one JSON object
#   benchmark/run.sh compare A.json B.json            two suite results against the bounds
#
# Run from the root of the checkout; the script goes there itself.
set -euo pipefail
cd "$(dirname "$0")/.."

# The driver sets CARGO_TARGET_DIR; alone, build into the benchmark's own
# directory so that the root workspace's target/ is left as it is.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Compiler output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/evopt-benchmark" "$@"
