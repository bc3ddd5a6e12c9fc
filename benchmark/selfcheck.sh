#!/usr/bin/env bash
# Run the full set twice on one build and compare the two result files.
# Passes only if `diff` says `ok` for every workload × end-to-end metric
# and every ops_digest / slate_digest is the same in both sets — the
# check behind "two sets of runs of the same code agree within the
# benchmark's own bounds", and the tool for parent-vs-change later
# (build each side, run the set on each, `diff` the two files).
#
#   benchmark/selfcheck.sh            # seed 11
#   SEED=5 benchmark/selfcheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${SEED:-11}"
bench() { cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
a="benchmark/out/selfcheck-a-seed${seed}.json"
b="benchmark/out/selfcheck-b-seed${seed}.json"
bench run --seed "$seed" --out "$a" >/dev/null
bench run --seed "$seed" --out "$b" >/dev/null
bench diff "$a" "$b"
