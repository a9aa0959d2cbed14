//! Resilience (§4.3): transactions survive transient storage faults and
//! node failures; aborted work never corrupts state; BE cache loss is
//! invisible.

use polaris::columnar::Value;
use polaris::core::{EngineConfig, PolarisEngine};
use polaris::dcp::{ComputePool, WorkloadClass};
use polaris::store::{FaultyStore, LocalFsStore, MemoryStore};
use std::sync::Arc;

fn engine_over(store: Arc<dyn polaris::store::ObjectStore>) -> Arc<PolarisEngine> {
    let pool = Arc::new(ComputePool::with_topology(3, 3, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    PolarisEngine::new(store, pool, EngineConfig::for_testing())
}

/// Writes keep succeeding under injected transient storage faults: the
/// DCP retries failed tasks, stale blocks are never committed, and the
/// final data is exactly right.
#[test]
fn transient_storage_faults_are_retried() {
    // 20% of write operations fail; the retry budget absorbs it.
    let store = FaultyStore::new(MemoryStore::new(), 0.2, 0xC0FFEE);
    let engine = engine_over(Arc::new(store));
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    let mut inserted = 0i64;
    for round in 0..10 {
        let values: Vec<String> = (0..20).map(|i| format!("({})", round * 20 + i)).collect();
        // A statement can still fail if every retry draws a fault; retry
        // the statement itself in that case, exactly as a client would.
        for _ in 0..50 {
            match s.execute(&format!("INSERT INTO t VALUES {}", values.join(","))) {
                Ok(_) => {
                    inserted += 20;
                    break;
                }
                Err(e) => {
                    // Transient storage errors surface as DCP failures.
                    let msg = e.to_string();
                    assert!(
                        msg.contains("transient") || msg.contains("injected"),
                        "unexpected error class: {msg}"
                    );
                }
            }
        }
    }
    let rows = s.query("SELECT COUNT(*) AS n, SUM(v) AS s FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(inserted));
    // No duplicate rows from retried attempts: every v distinct.
    let distinct = s
        .query("SELECT v, COUNT(*) AS c FROM t GROUP BY v ORDER BY c DESC LIMIT 1")
        .unwrap();
    if distinct.num_rows() > 0 {
        assert_eq!(
            distinct.row(0)[1],
            Value::Int(1),
            "retries must not duplicate rows"
        );
    }
}

/// Killing compute nodes mid-run: the scheduler re-places tasks on
/// survivors and the transaction commits exactly-once output.
#[test]
fn node_loss_during_mixed_workload() {
    let pool = Arc::new(ComputePool::with_topology(3, 3, 1));
    pool.add_nodes(WorkloadClass::System, 1, 1);
    let engine = PolarisEngine::new(
        Arc::new(MemoryStore::new()),
        Arc::clone(&pool),
        EngineConfig::for_testing(),
    );
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();

    let killer_pool = Arc::clone(&pool);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(10));
        // Kill one read and one write node (ids 1..=6 were created first).
        killer_pool.kill_node(polaris::dcp::NodeId(1));
        killer_pool.kill_node(polaris::dcp::NodeId(4));
    });
    for round in 0..10 {
        let values: Vec<String> = (0..50).map(|i| format!("({})", round * 50 + i)).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
            .unwrap();
        let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(rows.row(0)[0], Value::Int((round + 1) * 50));
    }
    killer.join().unwrap();
    let rows = s.query("SELECT COUNT(*) AS n, SUM(v) AS s FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(500));
    assert_eq!(rows.row(0)[1], Value::Int((0..500).sum::<i64>()));
}

/// The engine works identically over the on-disk store backend.
#[test]
fn local_fs_store_backend() {
    let root = std::env::temp_dir().join(format!("polaris-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = LocalFsStore::open(&root).unwrap();
    let engine = engine_over(Arc::new(store));
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, name VARCHAR)")
        .unwrap();
    s.execute("INSERT INTO t VALUES (1, 'on'), (2, 'disk')")
        .unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET name = 'disk!' WHERE id = 2")
        .unwrap();
    s.execute("COMMIT").unwrap();
    let rows = s.query("SELECT name FROM t ORDER BY id").unwrap();
    assert_eq!(rows.row(1)[0], Value::Str("disk!".into()));
    // Data files and the transaction log really are on disk.
    assert!(root.join("objects/lake/t").exists());
    let _ = std::fs::remove_dir_all(&root);
}

/// Losing every BE snapshot cache between statements changes nothing.
#[test]
fn repeated_cache_loss_is_transparent() {
    let engine = PolarisEngine::in_memory();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    let mut expected_sum = 0i64;
    for i in 0..8 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        expected_sum += i;
        engine.invalidate_caches();
        let rows = s.query("SELECT SUM(v) AS s FROM t").unwrap();
        assert_eq!(rows.row(0)[0], Value::Int(expected_sum));
    }
}

/// Full restart durability (§6.3): data on a durable store plus a catalog
/// backup makes the whole database recoverable — transactions, history,
/// checkpoints and clones included.
#[test]
fn engine_restarts_from_catalog_backup() {
    let root = std::env::temp_dir().join(format!("polaris-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let (old_seq, clone_expected) = {
        let store = Arc::new(LocalFsStore::open(&root).unwrap());
        let engine = engine_over(store);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (k BIGINT, v VARCHAR)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        let seq = polaris::core::lineage::history(&engine, "t").unwrap()[0].0;
        s.execute("UPDATE t SET v = 'TWO' WHERE k = 2").unwrap();
        polaris::core::lineage::clone_table(&engine, "t", "t_clone", Some(seq)).unwrap();
        polaris::core::sto::checkpoint_table(&engine, "t").unwrap();
        engine.backup_catalog("backups/catalog.ckpt").unwrap();
        (seq, 2i64)
    }; // engine dropped: simulated process exit

    // Restart: fresh pool, fresh engine, same durable store + backup.
    let store = Arc::new(LocalFsStore::open(&root).unwrap());
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let engine = polaris::core::PolarisEngine::restore(
        store,
        pool,
        EngineConfig::for_testing(),
        "backups/catalog.ckpt",
    )
    .unwrap();
    let mut s = engine.session();
    // Current state survived.
    let rows = s.query("SELECT k, v FROM t ORDER BY k").unwrap();
    assert_eq!(rows.num_rows(), 2);
    assert_eq!(rows.row(1)[1], Value::Str("TWO".into()));
    // History survived (time travel through the restored Manifests rows).
    let hist = s
        .query(&format!("SELECT v FROM t AS OF {} ORDER BY k", old_seq.0))
        .unwrap();
    assert_eq!(hist.row(1)[0], Value::Str("two".into()));
    // The clone survived.
    let clone = s.query("SELECT COUNT(*) AS n FROM t_clone").unwrap();
    assert_eq!(clone.row(0)[0], Value::Int(clone_expected));
    // And the restored engine accepts new writes with fresh sequences.
    s.execute("INSERT INTO t VALUES (3, 'three')").unwrap();
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(3));
    let _ = std::fs::remove_dir_all(&root);
}

/// A restored engine allocates above every transaction id its backup
/// holds: manifest and data file names carry the id, so reusing one would
/// overwrite files the restored `Manifests` rows still reference. Restored
/// twice over the same store, each generation keeps every row.
#[test]
fn a_restored_engine_never_reuses_a_transaction_id() {
    let store: Arc<dyn polaris::store::ObjectStore> = Arc::new(MemoryStore::new());
    let count = |engine: &Arc<PolarisEngine>| {
        let rows = engine
            .session()
            .query("SELECT COUNT(*) AS n FROM t")
            .unwrap();
        rows.row(0)[0].clone()
    };
    let mut engine = engine_over(Arc::clone(&store));
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    for i in 0..4 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    drop(s);
    for (generation, rows) in [(1, 4), (2, 5)] {
        let backup = format!("backups/catalog-{generation}.ckpt");
        engine.backup_catalog(&backup).unwrap();
        let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
        pool.add_nodes(WorkloadClass::System, 1, 2);
        engine = PolarisEngine::restore(
            Arc::clone(&store),
            pool,
            EngineConfig::for_testing(),
            &backup,
        )
        .unwrap();
        assert_eq!(count(&engine), Value::Int(rows), "restore {generation}");
        engine
            .session()
            .execute(&format!("INSERT INTO t VALUES ({})", 100 + generation))
            .unwrap();
        assert_eq!(count(&engine), Value::Int(rows + 1), "restore {generation}");
    }
}

/// A backup is one checksummed checkpoint frame: a flipped byte anywhere in
/// it, or a cut anywhere short of its end, is refused with an error — never
/// restored as a different catalog, never a panic.
#[test]
fn a_torn_or_corrupt_backup_is_refused() {
    use polaris::store::{BlobPath, Bytes, ObjectStore, Stamp};
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let engine = engine_over(Arc::clone(&store));
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT, v VARCHAR)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'one')").unwrap();
    engine.backup_catalog("backups/whole.ckpt").unwrap();
    let whole = store
        .get(&BlobPath::new("backups/whole.ckpt").unwrap())
        .unwrap();
    let pool = Arc::new(ComputePool::with_topology(1, 1, 1));
    let restore = |blob: Vec<u8>| {
        let path = BlobPath::new("backups/damaged.ckpt").unwrap();
        store.put(&path, Bytes::from(blob), Stamp::SYSTEM).unwrap();
        PolarisEngine::restore(
            Arc::clone(&store),
            Arc::clone(&pool),
            EngineConfig::for_testing(),
            path.as_str(),
        )
    };
    assert!(restore(whole.to_vec()).is_ok(), "the whole backup restores");
    for at in 0..whole.len() {
        let mut flipped = whole.to_vec();
        flipped[at] ^= 0x10;
        assert!(restore(flipped).is_err(), "byte {at} flipped");
    }
    for cut in 0..whole.len() {
        assert!(restore(whole[..cut].to_vec()).is_err(), "cut at {cut}");
    }
}
