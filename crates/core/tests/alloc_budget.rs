//! Allocation budgets on the warm paths an engine repeats most: the
//! auto-commit INSERT, the `polaris.metrics` scan dashboards poll, and a
//! filtered `COUNT(*)` over a user table.
//!
//! Each path is warmed, then measured engine-wide (work runs on pool
//! threads, so the process totals are the count) over several windows;
//! the **median** window shrugs off one-off growth events (a map rehash,
//! a vector doubling). The budgets are the counts measured when the gate
//! was written plus 10 %. To see where a regression lives, ask the engine:
//! `SELECT name, value FROM polaris.metrics WHERE name LIKE 'alloc%'`.
//!
//! Runs only with `--features track-alloc` (the tracking global
//! allocator); without it the file compiles to nothing.
#![cfg(feature = "track-alloc")]

use polaris_core::{EngineConfig, PolarisEngine};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_obs::Phase;
use polaris_store::MemoryStore;
use std::sync::Arc;

/// Allocations per warm auto-commit INSERT: 113 measured + 10 %.
const ALLOCS_PER_COMMIT: u64 = 124;
/// Allocations per warm `polaris.metrics` scan: 1 185 measured + 10 %
/// (≈ 10 per metric row).
const ALLOCS_PER_SYSTEM_SCAN: u64 = 1304;
/// Allocations per warm `SELECT COUNT(*) … WHERE …` over an 8-file table:
/// 545 measured + 10 %. It was 581 while every multi-morsel scan spawned
/// two prefetch threads and keyed a per-statement chunk cache by
/// `(path, offset)` — one `String` per chunk fetched.
const ALLOCS_PER_SCAN: u64 = 600;

const WINDOWS: usize = 9;

/// Median over [`WINDOWS`] windows of allocations per call of `op`, after
/// `warmup` unmeasured calls.
fn median_allocs(warmup: usize, per_window: usize, mut op: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        op();
    }
    let mut windows: Vec<u64> = (0..WINDOWS)
        .map(|_| {
            let before = polaris_obs::alloc::totals().allocs;
            for _ in 0..per_window {
                op();
            }
            (polaris_obs::alloc::totals().allocs - before) / per_window as u64
        })
        .collect();
    windows.sort_unstable();
    windows[WINDOWS / 2]
}

/// One test, not three: the totals are process-wide, so no path may be
/// measured while another runs.
#[test]
fn warm_commit_and_scans_stay_within_their_allocation_budgets() {
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    let config = EngineConfig {
        // No background harvester and no tracing ring: every allocation
        // the windows see comes from the measured path itself.
        telemetry_tick_ms: 0,
        trace_capacity: 0,
        ..EngineConfig::default()
    };
    let engine = PolarisEngine::new(Arc::new(MemoryStore::new()), pool, config);
    let mut session = engine.session();
    session
        .execute("CREATE TABLE gate (id BIGINT, v BIGINT)")
        .expect("create table");

    let mut i = 0usize;
    let phases0 = polaris_obs::alloc::phase_totals();
    let per_commit = median_allocs(64, 16, || {
        session
            .execute(&format!("INSERT INTO gate VALUES ({i}, {})", i * 7))
            .expect("warm-path insert commits");
        i += 1;
    });
    let phases1 = polaris_obs::alloc::phase_totals();
    assert!(
        per_commit <= ALLOCS_PER_COMMIT,
        "{per_commit} allocations per warm commit, budget {ALLOCS_PER_COMMIT}"
    );
    // The phase vocabulary owns the path: what no scope claims (the test's
    // own `format!` included) stays under a tenth of the commits' total.
    let by_phase: Vec<(&str, u64)> = Phase::ALL
        .iter()
        .map(|p| {
            let i = *p as usize;
            (p.label(), phases1[i].allocs - phases0[i].allocs)
        })
        .collect();
    let total: u64 = by_phase.iter().map(|(_, n)| n).sum();
    let unscoped = by_phase[Phase::Unscoped as usize].1;
    assert!(
        unscoped * 10 < total,
        "{unscoped} of {total} allocations are unscoped: {by_phase:?}"
    );

    let per_scan = median_allocs(16, 8, || {
        session
            .query("SELECT COUNT(name) AS n FROM polaris.metrics")
            .expect("warm system scan");
    });
    assert!(
        per_scan <= ALLOCS_PER_SYSTEM_SCAN,
        "{per_scan} allocations per warm system scan, budget {ALLOCS_PER_SYSTEM_SCAN}"
    );

    // 64 rows over the default 8 distributions: an 8-file table.
    session
        .execute("CREATE TABLE scanned (k BIGINT, v BIGINT)")
        .expect("create table");
    let rows: Vec<String> = (0..64).map(|i| format!("({i}, {})", i * 7)).collect();
    session
        .execute(&format!("INSERT INTO scanned VALUES {}", rows.join(",")))
        .expect("load");
    let per_scan = median_allocs(16, 8, || {
        session
            .query("SELECT COUNT(*) AS n FROM scanned WHERE v > 200")
            .expect("warm scan");
    });
    assert!(
        per_scan <= ALLOCS_PER_SCAN,
        "{per_scan} allocations per warm scan, budget {ALLOCS_PER_SCAN}"
    );
}
