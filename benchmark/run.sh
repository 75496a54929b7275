#!/usr/bin/env bash
# Release build, then one full traced run of every workload; the results file
# carries commit, rustc, detected cores, seed and seconds per workload.
#
#   benchmark/run.sh [SEED] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
seconds="${2:-10}"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
    commit="$commit-dirty"
fi
# Not `BENCH_*.json`: the root .gitignore drops those.
results="benchmark/out/ledger-$commit-seed$seed.json"

cargo build --release --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run \
    --seed "$seed" --seconds "$seconds" --trace 1 \
    --stamp "commit=$commit" --stamp "rustc=$(rustc --version)" \
    --results "$results"
echo "results: $results"
