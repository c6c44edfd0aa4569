#!/usr/bin/env bash
# Run every workload, untraced (end-to-end metrics) then traced (per-layer
# metrics), one OS process per run. Arguments are passed on to every run:
#   benchmark/run_all.sh --seed 7
#   benchmark/run_all.sh --smoke
#   benchmark/run_all.sh --out benchmark/baseline/run-1
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
for workload in tpch-prepared tpch-adhoc served-read served-durable-mix; do
  for trace in 0 1; do
    cargo run --release --offline -q --manifest-path "$here/Cargo.toml" -- \
      --workload "$workload" --trace "$trace" "$@"
  done
done
