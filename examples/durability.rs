//! Durable commit log and crash recovery: enable the WAL, "kill -9" the
//! engine, reopen, and watch recovery replay the log tail.
//!
//! ```sh
//! cargo run --example durability
//! ```
//!
//! The example runs three engine lifetimes over one shared store —
//! exactly the process-restart story, with the store standing in for the
//! durable object store that survives the process:
//!
//! 1. a durable engine does some work and is dropped without any
//!    shutdown hook (the simulated `kill -9`);
//! 2. a second lifetime reopens, recovers, commits more, and is killed
//!    mid-flight too;
//! 3. a third lifetime proves every acknowledged commit survived, shows
//!    the `SHOW ENGINE HEALTH` `wal` line (the `polaris.wal` row with the
//!    replayed watermark), and prints the structured `RecoveryReport`.

use polaris::core::{EngineConfig, PolarisEngine, StatementOutcome, Value};
use polaris::dcp::{ComputePool, WorkloadClass};
use polaris::store::{MemoryStore, ObjectStore};
use std::sync::Arc;

fn pool() -> Arc<ComputePool> {
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    pool
}

fn durable_config() -> EngineConfig {
    EngineConfig {
        commit_log_enabled: true,    // log every commit batch to sys/wal/
        log_segment_bytes: 64 << 10, // roll segments at 64 KiB
        log_checkpoint_every: 8,     // checkpoint the catalog every 8 batches
        ..EngineConfig::for_testing()
    }
}

fn reopen(store: &Arc<MemoryStore>) -> Arc<PolarisEngine> {
    // `open` (not `new`) is the durable entry point: it replays the
    // checkpoint + WAL tail first and only then starts logging.
    let dyn_store: Arc<dyn ObjectStore> = Arc::new(Arc::clone(store));
    PolarisEngine::open(dyn_store, pool(), durable_config()).expect("recovery")
}

fn main() {
    // The store outlives every engine — it is the durable medium.
    let store = Arc::new(MemoryStore::new());

    // Lifetime #1: create, insert, and die without ceremony.
    {
        let engine = reopen(&store);
        let mut s = engine.session();
        s.execute("CREATE TABLE orders (id BIGINT, total BIGINT)")
            .unwrap();
        for i in 0..10i64 {
            s.execute(&format!("INSERT INTO orders VALUES ({i}, {})", i * 100))
                .unwrap();
        }
        println!(
            "lifetime #1: committed 11 times, clock at ts {} — kill -9",
            engine.catalog().now().0
        );
        // Dropping the engine here is the crash: no flush, no shutdown.
    }

    // Lifetime #2: recover, do more work, die again.
    {
        let engine = reopen(&store);
        let report = engine.recovery_report().expect("durable open");
        println!(
            "lifetime #2: recovered to ts {} ({} commits replayed from {} segments) — more work, kill -9",
            report.recovered_clock, report.replayed_commits, report.segments_scanned
        );
        let mut s = engine.session();
        s.execute("UPDATE orders SET total = 0 WHERE id < 3")
            .unwrap();
        s.execute("DELETE FROM orders WHERE id = 9").unwrap();
    }

    // Lifetime #3: everything acknowledged is still there.
    let engine = reopen(&store);
    let mut s = engine.session();
    let rows = s
        .query("SELECT COUNT(*) AS n, SUM(total) AS t FROM orders")
        .unwrap();
    let (n, t) = (rows.row(0)[0].clone(), rows.row(0)[1].clone());
    assert_eq!(n, Value::Int(9));
    println!("lifetime #3: orders has {n} rows, total {t}");

    println!();
    if let StatementOutcome::Rows(batch) = s.execute("SHOW ENGINE HEALTH").unwrap() {
        for i in 0..batch.num_rows() {
            let line = format!("{}", batch.row(i)[0]);
            if line.starts_with("status: ") || line.starts_with("wal: ") {
                println!("{line}");
            }
        }
    }
    println!();
    println!("{:#?}", engine.recovery_report().unwrap());
}
