//! No thread is created per commit: the process has as many threads
//! after 1 000 auto-commit INSERTs on a durable engine as it had before.
//!
//! A test binary of its own with this one test: the count is the
//! process's, and any test running beside it would move it.
#![cfg(target_os = "linux")]

use polaris_core::{EngineConfig, PolarisEngine};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::MemoryStore;
use std::sync::Arc;

fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("a count")
}

#[test]
fn commits_create_no_threads() {
    let pool = Arc::new(ComputePool::with_topology(2, 4, 1));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    let config = EngineConfig {
        commit_log_enabled: true,
        ..EngineConfig::for_testing()
    };
    let engine = PolarisEngine::open(Arc::new(MemoryStore::new()), pool, config).unwrap();
    let mut session = engine.session();
    session
        .execute("CREATE TABLE t (k BIGINT, v BIGINT)")
        .unwrap();
    session.execute("INSERT INTO t VALUES (0, 0)").unwrap();
    let before = threads();
    for i in 1..=1000 {
        session
            .execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 7))
            .unwrap();
    }
    assert_eq!(threads(), before, "no thread per commit");
    let rows = session.query("SELECT COUNT(k) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0].as_int(), Some(1001));
}
