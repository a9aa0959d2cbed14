//! Work runs on the pool's threads: no thread starts while a durable engine
//! runs 1 000 auto-commit INSERTs, and a scan reads the store only from the
//! pool's nodes and the caller's thread.
//!
//! A test binary of its own: the threads are the process's, so its tests
//! take [`SERIAL`] and the engine that other tests build stays alive to the
//! end of the process — no engine thread starts or exits under a count. The
//! harness thread of the test before may still exit under it, so the check
//! is that no thread id appears, not that the count stays.
#![cfg(target_os = "linux")]

use polaris_core::{EngineConfig, PolarisEngine};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{LatencyModel, MemoryStore, ObjectStore, Request, SimStore};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The ids of the process's live threads.
fn threads() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|task| {
            task.expect("a task entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn commits_create_no_threads() {
    let _serial = serial();
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
    let started: Vec<String> = threads().difference(&before).cloned().collect();
    assert!(
        started.is_empty(),
        "no thread per commit: {started:?} started"
    );
    let rows = session.query("SELECT COUNT(k) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0].as_int(), Some(1001));
}

#[test]
fn a_scan_reads_only_on_the_pool() {
    let _serial = serial();
    let readers: Arc<Mutex<Vec<Option<String>>>> = Arc::default();
    let tap = {
        let readers = Arc::clone(&readers);
        move |r: Request<'_>| {
            if matches!(r.op, "get" | "get_range") {
                let name = std::thread::current().name().map(str::to_owned);
                readers.lock().unwrap().push(name);
            }
        }
    };
    let store: Arc<dyn ObjectStore> =
        Arc::new(SimStore::new(MemoryStore::new(), LatencyModel::ZERO).with_tap(tap));
    let pool = Arc::new(ComputePool::with_topology(4, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let engine = PolarisEngine::new(store, pool, EngineConfig::default());
    let mut session = engine.session();
    session
        .execute("CREATE TABLE t (k BIGINT, v BIGINT)")
        .unwrap();
    // 64 rows over the default 8 distributions: one file each.
    let rows: Vec<String> = (0..64).map(|i| format!("({i}, {})", i * 7)).collect();
    session
        .execute(&format!("INSERT INTO t VALUES {}", rows.join(",")))
        .unwrap();
    session.query("SELECT COUNT(*) AS n FROM t").unwrap();
    let profile = session.last_profile().unwrap();
    assert_eq!(profile.files_scanned, 8);

    readers.lock().unwrap().clear();
    for _ in 0..16 {
        let hits = session.query("SELECT k, v FROM t WHERE v > 200").unwrap();
        assert_eq!(hits.num_rows(), 35);
        let agg = session
            .query("SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE k < 32")
            .unwrap();
        assert_eq!(agg.row(0)[0].as_int(), Some(32));
    }
    let own = std::thread::current().name().map(str::to_owned);
    let readers = readers.lock().unwrap();
    assert!(!readers.is_empty(), "the scans read the store");
    let strays: Vec<_> = readers
        .iter()
        .filter(|name| {
            let on_pool = name
                .as_deref()
                .is_some_and(|n| n.starts_with("polaris-node-"));
            !on_pool && **name != own
        })
        .collect();
    assert!(strays.is_empty(), "reads off the pool: {strays:?}");
    std::mem::forget(engine);
}
