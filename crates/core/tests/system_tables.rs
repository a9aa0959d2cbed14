//! End-to-end coverage for the `polaris.*` system schema: metrics served
//! through the normal plan/scan path agree *exactly* with
//! `metrics_snapshot()` while a group-commit workload runs, system scans
//! inside an open transaction neither pin the GC watermark nor block
//! concurrent commits, `SHOW TABLES` enumerates both worlds, and
//! `polaris.slow_log` joins `polaris.trace_spans` on the stable
//! `query_id`.

use polaris_core::{
    DataType, EngineConfig, Field, PolarisEngine, RecordBatch, Schema, StatementOutcome, Value,
};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::MemoryStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn engine_with(config: EngineConfig) -> Arc<PolarisEngine> {
    let pool = Arc::new(ComputePool::with_topology(2, 4, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    PolarisEngine::new(Arc::new(MemoryStore::new()), pool, config)
}

fn int_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ])
}

fn rows(n: i64, offset: i64) -> RecordBatch {
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(offset + i), Value::Int(i)])
        .collect();
    RecordBatch::from_rows(int_schema(), &rows).unwrap()
}

/// Read one counter/gauge value out of `polaris.metrics` via SQL.
fn metric_value(engine: &Arc<PolarisEngine>, name: &str) -> f64 {
    let mut s = engine.session();
    let batch = s
        .query(&format!(
            "SELECT value FROM polaris.metrics WHERE name = '{name}'"
        ))
        .unwrap();
    assert_eq!(batch.num_rows(), 1, "expected exactly one `{name}` row");
    match batch.row(0)[0] {
        Value::Float(f) => f,
        ref other => panic!("metric value column returned {other:?}"),
    }
}

/// The satellite's headline property: `polaris.metrics` is served by the
/// same registry the snapshot API reads, so once the workload quiesces the
/// SQL-visible `catalog.commits` equals `metrics_snapshot()` *exactly* —
/// no sampling, no lag. While the group-commit workload is still running,
/// concurrent system scans must stay error-free and monotone.
#[test]
fn metrics_table_matches_snapshot_exactly_under_group_commit() {
    const WRITERS: usize = 3;
    const TXNS: usize = 8;

    let config = EngineConfig {
        group_commit_max_batch: 4,
        ..EngineConfig::for_testing()
    };
    let engine = engine_with(config);
    for w in 0..WRITERS {
        engine
            .create_table(&format!("t{w}"), &int_schema())
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let scanner = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0.0_f64;
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let v = metric_value(&engine, "catalog.commits");
                assert!(
                    v >= last,
                    "catalog.commits went backwards under load: {v} < {last}"
                );
                last = v;
                scans += 1;
            }
            scans
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let table = format!("t{w}");
                let mut s = engine.session();
                for i in 0..TXNS {
                    s.execute("BEGIN").unwrap();
                    s.insert_batch(&table, &rows(32, (i as i64) * 32)).unwrap();
                    match s.execute("COMMIT").unwrap() {
                        StatementOutcome::Committed(Some(_)) => {}
                        other => panic!("write commit returned {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let scans = scanner.join().unwrap();
    assert!(
        scans > 0,
        "the scanner thread never completed a system scan"
    );

    // Quiesced: the SQL value and the snapshot value are the same counter.
    // Snapshot first — the probe query's own auto-commit lands *after* its
    // scan, so the scan observes exactly the pre-probe count.
    let snap_commits = engine.metrics_snapshot().counter("catalog.commits");
    let sql_commits = metric_value(&engine, "catalog.commits");
    assert_eq!(
        sql_commits, snap_commits as f64,
        "polaris.metrics must agree exactly with metrics_snapshot()"
    );
    assert!(
        snap_commits >= (WRITERS * TXNS) as u64,
        "every workload commit must be counted"
    );
}

/// System scans are catalog-free: running one inside an open transaction
/// must not register a second snapshot (no GC-watermark pin) and must not
/// deadlock against transactions committing concurrently. Because the
/// tables are point-in-time over *live* engine state — not bound to the
/// reader's snapshot — the open transaction observes the concurrent
/// commits in `polaris.metrics` while its own data snapshot stays frozen.
#[test]
fn system_scan_inside_open_txn_neither_pins_watermark_nor_blocks_commits() {
    let engine = engine_with(EngineConfig::for_testing());
    engine.create_table("t", &int_schema()).unwrap();
    engine.session().insert_batch("t", &rows(16, 0)).unwrap();

    let mut s1 = engine.session();
    s1.execute("BEGIN").unwrap();
    // Pin the reader's data snapshot with a real table read.
    let before = s1.query("SELECT k FROM t").unwrap().num_rows();
    assert_eq!(before, 16);

    let active_before = engine.catalog().active_txns();
    let watermark_before = engine.catalog().min_active_snapshot();
    assert_eq!(active_before.len(), 1, "only s1's transaction is open");

    // A system scan inside the open transaction.
    let names = s1.query("SELECT name FROM polaris.metrics").unwrap();
    assert!(names.num_rows() > 0);

    // No new catalog registration, no watermark movement.
    assert_eq!(engine.catalog().active_txns().len(), 1);
    assert_eq!(engine.catalog().min_active_snapshot(), watermark_before);

    // Concurrent commits proceed while s1 stays open and keeps scanning.
    let commits_before = engine.metrics_snapshot().counter("catalog.commits");
    let writer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let mut s2 = engine.session();
            for i in 0..5 {
                s2.execute("BEGIN").unwrap();
                s2.insert_batch("t", &rows(8, 1_000 + i * 8)).unwrap();
                s2.execute("COMMIT").unwrap();
            }
        })
    };
    writer.join().unwrap();
    let commits_after = engine.metrics_snapshot().counter("catalog.commits");
    assert_eq!(commits_after, commits_before + 5);

    // Point-in-time semantics: the still-open transaction sees the *new*
    // counter value through polaris.metrics...
    let mid_txn = {
        let batch = s1
            .query("SELECT value FROM polaris.metrics WHERE name = 'catalog.commits'")
            .unwrap();
        match batch.row(0)[0] {
            Value::Float(f) => f,
            ref other => panic!("metric value column returned {other:?}"),
        }
    };
    assert_eq!(mid_txn, commits_after as f64);
    // ...while its data snapshot is still the one it began with.
    assert_eq!(s1.query("SELECT k FROM t").unwrap().num_rows(), 16);
    s1.execute("COMMIT").unwrap();

    // And the new rows are visible once the snapshot is released.
    assert_eq!(
        engine
            .session()
            .query("SELECT k FROM t")
            .unwrap()
            .num_rows(),
        16 + 40
    );
}

#[test]
fn show_tables_lists_user_and_system_tables() {
    let engine = engine_with(EngineConfig::for_testing());
    engine.create_table("zebra", &int_schema()).unwrap();
    engine.create_table("alpha", &int_schema()).unwrap();

    let names = |batch: &RecordBatch| -> Vec<String> {
        (0..batch.num_rows())
            .map(|i| match &batch.row(i)[0] {
                Value::Str(s) => s.clone(),
                other => panic!("table_name returned {other:?}"),
            })
            .collect()
    };

    let mut s = engine.session();
    let all = s.query("SHOW TABLES").unwrap();
    let all = names(&all);
    // User tables first (sorted), then the polaris.* schema.
    assert_eq!(all[0], "alpha");
    assert_eq!(all[1], "zebra");
    assert!(all.contains(&"polaris.metrics".to_owned()));
    assert!(all.contains(&"polaris.trace_spans".to_owned()));

    let system = s.query("SHOW SYSTEM TABLES").unwrap();
    let system = names(&system);
    assert_eq!(system.len(), 8, "eight system tables: {system:?}");
    assert!(system.iter().all(|n| n.starts_with("polaris.")));
    assert_eq!(all.len(), system.len() + 2);

    // SHOW TABLES is a catalog enumeration, not a transactional read —
    // inside an explicit transaction it is rejected, like DDL.
    s.execute("BEGIN").unwrap();
    assert!(s.execute("SHOW TABLES").is_err());
    s.execute("ROLLBACK").unwrap();
}

/// `query_id` is the correlation key: every slow statement record carries
/// the id, and the statement's root trace span carries the same id as an
/// attribute — so slow_log ⋈ trace_spans is a plain SQL join.
#[test]
fn slow_log_joins_trace_spans_on_query_id() {
    let config = EngineConfig {
        slow_statement_ms: 0, // record every statement
        ..EngineConfig::for_testing()
    };
    let engine = engine_with(config);
    engine.create_table("t", &int_schema()).unwrap();
    engine.session().insert_batch("t", &rows(32, 0)).unwrap();
    engine
        .session()
        .query("SELECT k FROM t WHERE k > 3")
        .unwrap();

    let mut s = engine.session();
    let joined = s
        .query(
            "SELECT query_id, statement FROM polaris.slow_log s \
             JOIN polaris.trace_spans t ON s.query_id = t.query_id \
             WHERE kind = 'statement'",
        )
        .unwrap();
    assert!(
        joined.num_rows() > 0,
        "every slow statement must join at least its own root span"
    );
    for i in 0..joined.num_rows() {
        match joined.row(i)[0] {
            Value::Int(id) => assert!(id > 0, "statement records carry a nonzero query_id"),
            ref other => panic!("query_id returned {other:?}"),
        }
    }
}

/// `uptime_seconds` and `build_info` are queryable through
/// `polaris.metrics`; uptime is refreshed by the scan itself.
#[test]
fn uptime_and_build_info_surface_in_metrics() {
    let engine = engine_with(EngineConfig::for_testing());

    let uptime = metric_value(&engine, "uptime_seconds");
    assert!(uptime >= 0.0);

    let mut s = engine.session();
    let info = s
        .query("SELECT labels, value FROM polaris.metrics WHERE name = 'build_info'")
        .unwrap();
    assert_eq!(info.num_rows(), 1, "exactly one build_info gauge");
    match &info.row(0)[0] {
        Value::Str(labels) => {
            assert!(labels.contains("version="), "build_info labels: {labels}");
            assert!(labels.contains("git="), "build_info labels: {labels}");
        }
        other => panic!("labels returned {other:?}"),
    }
    assert_eq!(info.row(0)[1], Value::Float(1.0));

    std::thread::sleep(std::time::Duration::from_millis(1_100));
    assert!(metric_value(&engine, "uptime_seconds") > uptime);
}

/// `polaris.transactions` reflects live transaction state: an open
/// transaction shows up with its statement counts while another session
/// introspects it.
#[test]
fn transactions_table_shows_open_transactions() {
    let engine = engine_with(EngineConfig::for_testing());
    engine.create_table("t", &int_schema()).unwrap();

    let mut s1 = engine.session();
    s1.execute("BEGIN").unwrap();
    s1.insert_batch("t", &rows(4, 0)).unwrap();
    let open = engine.catalog().active_txns();
    assert_eq!(open.len(), 1);
    let open_id = open[0].0 .0 as i64;

    let mut s2 = engine.session();
    let batch = s2
        .query("SELECT txn_id, phase, statements FROM polaris.transactions")
        .unwrap();
    let row = (0..batch.num_rows())
        .map(|i| batch.row(i))
        .find(|r| r[0] == Value::Int(open_id))
        .unwrap_or_else(|| panic!("open txn {open_id} missing from polaris.transactions"));
    assert_eq!(row[1], Value::Str("active".to_owned()));
    assert_eq!(row[2], Value::Int(1), "one statement has run so far");
    s1.execute("ROLLBACK").unwrap();

    // After the rollback the slot is gone.
    let batch = s2.query("SELECT txn_id FROM polaris.transactions").unwrap();
    assert!(
        (0..batch.num_rows()).all(|i| batch.row(i)[0] != Value::Int(open_id)),
        "rolled-back txn must leave polaris.transactions"
    );
}
