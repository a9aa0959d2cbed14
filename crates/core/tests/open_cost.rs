//! What `open` asks of the store, as counts rather than timers: recovery
//! reads `sys/` only — the newest checkpoint blob and the log segments a
//! generation has not pruned — so it lists nothing under `lake/`, and the
//! number of requests does not grow with the number of commits ever made.

use polaris_core::{EngineConfig, PolarisEngine};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{LatencyModel, MemoryStore, ObjectStore, Request, SimStore};
use std::sync::{Arc, Mutex};

/// Every request the store saw: `(op, path)`.
type Seen = Arc<Mutex<Vec<(&'static str, String)>>>;

fn open(inner: &Arc<MemoryStore>, seen: &Seen) -> Arc<PolarisEngine> {
    let tap = {
        let seen = Arc::clone(seen);
        move |r: Request<'_>| seen.lock().unwrap().push((r.op, r.path.to_owned()))
    };
    let store = SimStore::new(Arc::clone(inner), LatencyModel::ZERO).with_tap(tap);
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let config = EngineConfig {
        commit_log_enabled: true,
        log_checkpoint_every: 64,
        ..EngineConfig::for_testing()
    };
    PolarisEngine::open(Arc::new(store) as Arc<dyn ObjectStore>, pool, config).unwrap()
}

/// Requests of one `open` over `inner`.
fn open_requests(inner: &Arc<MemoryStore>) -> Vec<(&'static str, String)> {
    let seen = Seen::default();
    drop(open(inner, &seen));
    let requests = seen.lock().unwrap().clone();
    requests
}

#[test]
fn open_reads_sys_only_and_as_much_after_4096_commits_as_after_1024() {
    let inner = Arc::new(MemoryStore::new());
    let engine = open(&inner, &Seen::default());
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    let mut counts = Vec::new();
    let mut inserted = 0;
    for history in [1024, 4096] {
        while inserted < history {
            s.execute(&format!("INSERT INTO t VALUES ({inserted})"))
                .unwrap();
            inserted += 1;
        }
        let requests = open_requests(&inner);
        let outside: Vec<_> = requests
            .iter()
            .filter(|(_, path)| !path.starts_with("sys/"))
            .collect();
        assert!(outside.is_empty(), "after {history} commits: {outside:?}");
        assert!(
            !requests
                .iter()
                .any(|(op, path)| *op == "list" && path.starts_with("lake/")),
            "open listed the lake"
        );
        counts.push(requests.len());
    }
    assert_eq!(
        counts[0], counts[1],
        "requests of open after 1024 and 4096 commits"
    );
}
