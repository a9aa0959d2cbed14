//! What a DML statement asks of the store, counted per request: an UPDATE
//! reads each data file it touches once — one whole-blob `get` yields both
//! the rows it rewrites and the delete vector that removes them.

use polaris_core::{EngineConfig, PolarisEngine};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{LatencyModel, MemoryStore, ObjectStore, Request, SimStore};
use std::sync::{Arc, Mutex};

#[test]
fn update_reads_its_data_file_with_one_get() {
    let seen: Arc<Mutex<Vec<(&'static str, String)>>> = Arc::default();
    let tap = {
        let seen = Arc::clone(&seen);
        move |r: Request<'_>| seen.lock().unwrap().push((r.op, r.path.to_owned()))
    };
    let store: Arc<dyn ObjectStore> =
        Arc::new(SimStore::new(MemoryStore::new(), LatencyModel::ZERO).with_tap(tap));
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let config = EngineConfig {
        // One distribution: every INSERT writes one file.
        distributions: 1,
        ..EngineConfig::for_testing()
    };
    let engine = PolarisEngine::new(store, pool, config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
    seen.lock().unwrap().clear();
    s.execute("INSERT INTO t VALUES (0, 10), (1, 20), (2, 30), (3, 40)")
        .unwrap();
    let data_files: Vec<String> = seen
        .lock()
        .unwrap()
        .iter()
        .filter(|(op, path)| *op == "put" && path.ends_with(".pcf"))
        .map(|(_, path)| path.clone())
        .collect();
    let [file] = &data_files[..] else {
        panic!("a one-file table, got {data_files:?}");
    };
    // A delete vector already in place: the UPDATE merges into it.
    s.execute("DELETE FROM t WHERE id = 2").unwrap();

    seen.lock().unwrap().clear();
    s.execute("UPDATE t SET v = v + 1 WHERE id = 0").unwrap();
    let reads: Vec<&'static str> = seen
        .lock()
        .unwrap()
        .iter()
        .filter(|(op, path)| path == file && matches!(*op, "get" | "get_range" | "head"))
        .map(|(op, _)| *op)
        .collect();
    assert_eq!(reads, ["get"], "requests for {file}");

    let rows = s.query("SELECT id, v FROM t ORDER BY id").unwrap();
    let rows: Vec<(i64, i64)> = (0..rows.num_rows())
        .map(|i| {
            let row = rows.row(i);
            (row[0].as_int().unwrap(), row[1].as_int().unwrap())
        })
        .collect();
    assert_eq!(rows, [(0, 11), (1, 20), (3, 40)]);
}
