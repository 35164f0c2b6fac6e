#!/usr/bin/env bash
# The benchmark's one command. Builds the release `repro` binary and the
# benchmark harness from source, then runs the harness.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]              every workload, untraced then traced
#   benchmark/run.sh --twice [--seed N] [--seconds S]                two full sets, then compare them
#   benchmark/run.sh compare A.json B.json                           compare two result sets
#   benchmark/run.sh --record                                        rewrite benchmark/expected.json
#   benchmark/run.sh --list                                          every name the harness can emit
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Engine-selecting knobs must not leak into a measurement.
unset PFCSIM_SCHED PFCSIM_THREADS PFCSIM_PARTITIONS PFCSIM_HYBRID PFCSIM_NO_TRAINS

# One target directory for both builds, so the harness finds `repro`
# beside itself and the crates compile once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p pfcsim-experiments --bin repro >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
harness="$CARGO_TARGET_DIR/release/pfcsim-benchmark"
repro="$CARGO_TARGET_DIR/release/repro"

case "${1:-}" in
  compare | --list)
    exec "$harness" "$@"
    ;;
  --record)
    exec "$harness" record --repro "$repro"
    ;;
  --twice)
    shift
    "$harness" all --repro "$repro" --out benchmark/out/results-a.json "$@"
    "$harness" all --repro "$repro" --out benchmark/out/results-b.json "$@"
    exec "$harness" compare benchmark/out/results-a.json benchmark/out/results-b.json
    ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$harness" --repro "$repro" "$@"
  fi
done
exec "$harness" all --repro "$repro" "$@"
