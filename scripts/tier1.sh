#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint-clean clippy,
# formatting, and warning-free rustdoc.
# Run from the repo root before every PR.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
# The benchmark is a package of its own, so `cargo test` above never builds
# it: its smoke runs all four workloads with the answer checks on, which is
# where an exec change that breaks an answer shows before the pipeline.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Morsel-scan smoke: the proptest oracle proving morsel scans are
# row-identical to the single-node reference. The vendored proptest
# derives a fixed seed from the test name, so this gate is deterministic.
cargo test --release -q -p polaris-exec --test morsel_oracle
# The key kernel ships optimized, so its wrapping hash arithmetic is tested optimized.
cargo test --release -q -p polaris-exec --test operator_oracles
# STO smoke, optimized as it ships: the GC equivalence oracle (incremental
# sweep == from-scratch fold, blob for blob, across clones, drops and
# reopens) is all that stands between a stale fate cache and a deleted live
# file, and the tick-cost test counts reads instead of timing them.
cargo test --release -q -p polaris-core --test gc_safety --test sto_cost
# Durability smoke, optimized as it ships: the recoverability oracle (after
# every checkpoint generation the blob folds to the live catalog, and with
# its newest frame lost at any byte `open` still recovers that catalog —
# across drops, clones, re-bases and reopens) is what the incremental
# checkpoint format stands on, and the cost test counts the bytes a
# generation, the tick and a read send to the store instead of timing them.
cargo test --release -q -p polaris-core --test recovery --test checkpoint_cost
# A §6.3 backup restore rebuilds its catalog through the same fold and
# import as recovery, so the restart-from-backup tests (a restored engine
# keeps every row and allocates above every restored id) ride along.
cargo test --release -q --test fault_tolerance
# Decoder smoke, optimized as it ships: the six decoders that read bytes
# back from the store (manifests, lst checkpoints, WAL frames, catalog
# checkpoint blobs, the columnar file read whole and footer-then-chunks,
# and the delete vector) return on random bytes, every prefix, every bit
# flip, every run of nine 0xFF bytes over a data file and lengths claiming
# u32/u64::MAX — and every encoder's output decodes to what it encoded,
# however manifest blocks were split.
cargo test --release -q -p polaris-core --test decoder_fuzz
# Release arithmetic wraps where debug arithmetic panics, so the columnar
# golden-bytes test and encoding proptests also run the arithmetic that ships.
cargo test --release -q -p polaris-columnar
# Scheduler smoke, optimized as it ships: the races between a scheduler
# parking for a slot, a node being killed under an attempt (on a lane or on
# the committing thread) and a slot release only show at release timing, as
# does the 8 %-fault + node-churn chaos over staging and publication.
cargo test --release -q -p polaris-dcp
cargo test --release -q -p polaris-core --test pipelined_commit
# Fault draws, kill gating, the tap and latency share one gate in the
# simulated store: its op-table unit tests and the two fault-retry suites
# run optimized, as the store ships.
cargo test --release -q -p polaris-store
cargo test --release -q -p polaris-core --test scan_faults --test tracing
# Commit-lock races show at release timing.
cargo test --release -q -p polaris-catalog --test commit_concurrency
cargo clippy --workspace --all-targets -- -D warnings
# No input may panic the engine: no `.unwrap()` in the library and binary
# code of any workspace crate (tests keep theirs, so not --all-targets) —
# and in the obs crate's tracking-allocator configuration too, so the gated
# code stays lint-clean.
cargo clippy --workspace -- -D warnings -D clippy::unwrap_used
cargo clippy -p polaris-obs --features track-alloc -- -D warnings -D clippy::unwrap_used
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# Telemetry smoke: serve a real engine on an OS-assigned port (no fixed
# port to collide with a parallel run), parse the bound address from the
# example's stdout, then scrape /metrics and /health over plain HTTP.
if command -v curl >/dev/null; then
  telemetry_out=$(mktemp)
  cargo run --release --example telemetry "127.0.0.1:0" 10000 \
    >"$telemetry_out" 2>&1 &
  telemetry_pid=$!
  trap 'kill "$telemetry_pid" 2>/dev/null || true; rm -f "$telemetry_out"' EXIT
  addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's#^telemetry endpoint: http://\([^/]*\)/metrics.*#\1#p' \
      "$telemetry_out")
    if [ -n "$addr" ] && curl -sf "http://${addr}/metrics" >/dev/null 2>&1; then
      break
    fi
    sleep 0.2
  done
  [ -n "$addr" ] || { echo "telemetry smoke: endpoint never printed"; exit 1; }
  metrics=$(curl -sf "http://${addr}/metrics")
  echo "$metrics" | grep -q '^catalog_commits_total '
  # Resource attribution is always exposed (zeros without track-alloc).
  echo "$metrics" | grep -q '^alloc_bytes_total{phase="unscoped"} '
  echo "$metrics" | grep -q '^process_resident_bytes '
  health=$(curl -sf "http://${addr}/health")
  echo "$health" | grep -q '"status"'
  echo "$health" | grep -q '"process.resident_bytes"'
  # One model, two renderings: /health says what SHOW ENGINE HEALTH (the
  # example printed it before serving) said.
  shown=$(sed -n 's/^status: //p' "$telemetry_out")
  echo "$health" | grep -q "\"status\": \"${shown}\"" \
    || { echo "telemetry smoke: /health disagrees with 'status: ${shown}'"; exit 1; }
  kill "$telemetry_pid" 2>/dev/null || true
  wait "$telemetry_pid" 2>/dev/null || true
  rm -f "$telemetry_out"
  trap - EXIT
  echo "telemetry smoke: ok"
else
  echo "telemetry smoke: skipped (no curl)"
fi

# System-schema smoke: the polaris.* virtual tables answer plain SQL
# through the normal plan/scan path, and the query_id correlation join
# (slow_log x trace_spans) returns rows.
metrics_count=$(echo "SELECT COUNT(name) AS n FROM polaris.metrics;" \
  | cargo run --release -q --example system_tables | sed -n 2p)
[ "${metrics_count:-0}" -gt 0 ] \
  || { echo "system smoke: polaris.metrics returned no rows"; exit 1; }
join_rows=$(echo "SELECT query_id FROM polaris.slow_log s \
    JOIN polaris.trace_spans t ON s.query_id = t.query_id \
    WHERE kind = 'statement';" \
  | cargo run --release -q --example system_tables \
  | sed -n 's/^(\([0-9]*\) rows)$/\1/p')
[ "${join_rows:-0}" -gt 0 ] \
  || { echo "system smoke: slow_log x trace_spans join returned no rows"; exit 1; }
echo "system smoke: ok (${metrics_count} metrics, ${join_rows} joined slow statements)"

# Allocation gates, on the tracking allocator: the warm auto-commit INSERT
# (<= 124 allocations, under a tenth of them unscoped), the warm
# polaris.metrics scan (<= 1 304) and the warm filtered COUNT(*) over an
# 8-file table (<= 600) stay within their budgets, and the catalog-only
# commit path allocates nothing at all once warm.
cargo test --release -q -p polaris-core --features track-alloc --test alloc_budget
cargo test --release -q -p polaris-catalog --features track-alloc \
  --test zero_alloc_commit
# The obs crate's own allocator-gated tests: a scope attributes the bytes
# allocated under it, and a steady-state harvester tick allocates nothing.
cargo test --release -q -p polaris-obs --features track-alloc

# Crash-recovery chaos gate, optimized as it ships: the bounded
# deterministic kill matrix — every kill site (manifest staging/upload, WAL
# stage/publish, commit probes, checkpoint stage/publish) × two fixed seeds,
# asserting committed-stays-committed, aborted-leaves-no-trace, dense clock,
# zero orphans, and double-reopen idempotence. Randomized soaking is
# scripts/chaos.sh, not a CI gate.
cargo test --release -q --test kill_matrix | tail -n 1
