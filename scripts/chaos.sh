#!/usr/bin/env bash
# Chaos soak: run the kill-anywhere recovery harness beyond the bounded
# tier-1 matrix. Every lifetime kills the engine at a randomized point
# of the commit pipeline (store freeze or commit probe), reopens, and
# asserts the recovery contract — committed-stays-committed,
# aborted-leaves-no-trace, dense clock, zero orphaned manifests,
# double-reopen idempotence.
#
# Usage:
#   scripts/chaos.sh              # matrix + 200 randomized lifetimes
#   scripts/chaos.sh 5000         # longer soak
#   scripts/chaos.sh 200 12345    # pin the base seed for reproduction
#
# A failing scenario panics with its label (site, nth, seed); re-run with
# the printed seed to reproduce deterministically.
set -euo pipefail
cd "$(dirname "$0")/.."

soak="${1:-200}"
seed="${2:-}"

args=(--soak "$soak")
if [ -n "$seed" ]; then
  args+=(--seed "$seed")
fi

exec cargo test --release -q --test kill_matrix -- "${args[@]}"
