//! Per-statement and per-transaction profiles surfaced through
//! `Session::last_profile()` / `Session::last_txn_profile()`, and their
//! agreement with the engine-wide metrics registry.

use polaris_core::{DataType, Field, PolarisEngine, RecordBatch, Schema, ValidationOutcome, Value};
use std::sync::Arc;

fn clustered_engine() -> Arc<PolarisEngine> {
    let engine = PolarisEngine::in_memory();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    engine
        .create_table_clustered("t", &schema, &["k".to_owned()])
        .unwrap();
    engine
}

fn shuffled_rows(n: i64) -> RecordBatch {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    let mut rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
    for i in 0..rows.len() {
        let j = (i * 7919) % rows.len();
        rows.swap(i, j);
    }
    RecordBatch::from_rows(schema, &rows).unwrap()
}

#[test]
fn dml_profile_is_populated_and_committed() {
    let engine = clustered_engine();
    let mut s = engine.session();
    let n = s.insert_batch("t", &shuffled_rows(512)).unwrap();
    assert_eq!(n, 512);

    let p = s.last_profile().expect("insert must leave a profile");
    assert_eq!(p.statement, "insert t");
    assert_eq!(p.rows_out, 512);
    assert!(p.blocks_staged > 0, "insert stages manifest blocks");
    assert!(p.blocks_committed > 0, "insert commits its block list");
    assert!(p.task_attempts > 0, "insert fans out over write tasks");
    assert_eq!(p.validation, ValidationOutcome::Committed);
    assert!(p.wall_ns > 0);
    assert!(
        p.commit_ns > 0 && p.commit_ns < p.wall_ns,
        "the commit is a part of the statement's wall time: {p:?}"
    );

    let tp = s.last_txn_profile().expect("auto-commit resolves a txn");
    assert_eq!(tp.validation, ValidationOutcome::Committed);
    assert_eq!(tp.tables_written, 1);
    assert_eq!(tp.blocks_staged, p.blocks_staged);
}

/// Regression: the commit path used to add the table's *cumulative* block
/// list to `blocks_committed` on every insert statement, so a transaction
/// with two inserts of s1 and s2 blocks reported 2·s1 + s2 committed.
/// Every staged block is published exactly once, so the committed count
/// must equal the staged count.
#[test]
fn multi_insert_txn_commits_each_block_exactly_once() {
    let engine = clustered_engine();
    let mut s = engine.session();
    s.execute("BEGIN").unwrap();
    s.insert_batch("t", &shuffled_rows(256)).unwrap();
    let s1 = s.last_profile().unwrap().blocks_staged;
    s.insert_batch("t", &shuffled_rows(512)).unwrap();
    let s2 = s.last_profile().unwrap().blocks_staged;
    assert!(s1 > 0 && s2 > 0, "both inserts stage manifest blocks");
    s.execute("COMMIT").unwrap();

    let tp = s.last_txn_profile().expect("commit resolves a txn");
    assert_eq!(tp.validation, ValidationOutcome::Committed);
    assert_eq!(tp.blocks_staged, s1 + s2);
    assert_eq!(
        tp.blocks_committed,
        s1 + s2,
        "each staged block is committed exactly once, not cumulatively"
    );
    // The committing statement's profile carries the same commit-time count.
    assert_eq!(s.last_profile().unwrap().blocks_committed, s1 + s2);
}

/// `rows_out` is what the statement returned: one row for an aggregate
/// over 512 scanned rows, every row for a `polaris.*` select (which scans
/// no data file). The scan's surviving rows stay in `exec.rows_out`.
#[test]
fn select_rows_out_counts_result_rows() {
    let engine = clustered_engine();
    let mut s = engine.session();
    s.insert_batch("t", &shuffled_rows(512)).unwrap();
    let scanned = || engine.metrics_snapshot().counter("exec.rows_out");
    let before = scanned();
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(512));
    assert_eq!(s.last_profile().unwrap().rows_out, 1);
    assert_eq!(scanned() - before, 512, "the scan's survivors");

    let lanes = s.query("SELECT class FROM polaris.lanes").unwrap();
    assert_eq!(lanes.num_rows(), 3);
    assert_eq!(s.last_profile().unwrap().rows_out, 3);
}

#[test]
fn clustered_range_query_prunes_files_and_reads_less() {
    let engine = clustered_engine();
    let mut s = engine.session();
    s.insert_batch("t", &shuffled_rows(512)).unwrap();

    // Tight range over the cluster key: file statistics prune most files.
    let rows = s
        .query("SELECT SUM(v) AS s FROM t WHERE k BETWEEN 100 AND 120")
        .unwrap();
    assert_eq!(rows.row(0)[0], Value::Int((100..=120).sum::<i64>()));
    let range = s
        .last_profile()
        .expect("select must leave a profile")
        .clone();
    assert_eq!(range.statement, "select t");
    assert!(
        range.files_pruned > 0,
        "range query over the cluster key must prune files: {range:?}"
    );
    assert!(range.bytes_read > 0);
    assert_eq!(range.validation, ValidationOutcome::ReadOnly);

    // The same aggregate without the predicate reads every file.
    let rows = s.query("SELECT SUM(v) AS s FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int((0..512).sum::<i64>()));
    let full = s.last_profile().unwrap().clone();
    assert_eq!(full.files_pruned, 0);
    assert!(
        range.bytes_read < full.bytes_read,
        "pruned range scan must read strictly fewer payload bytes: {} vs {}",
        range.bytes_read,
        full.bytes_read
    );
    assert!(range.files_scanned < full.files_scanned);

    // The registry saw the same scans the profiles did.
    let snap = engine.metrics_snapshot();
    assert!(snap.counter("exec.files_pruned") >= range.files_pruned);
    assert!(snap.counter("exec.bytes_read") >= range.bytes_read + full.bytes_read);
}

#[test]
fn first_committer_wins_loser_records_ww_conflict() {
    let engine = clustered_engine();
    let mut setup = engine.session();
    setup.insert_batch("t", &shuffled_rows(64)).unwrap();

    let mut s1 = engine.session();
    let mut s2 = engine.session();
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    s1.execute("UPDATE t SET v = v + 1 WHERE k < 10").unwrap();
    s2.execute("UPDATE t SET v = v + 2 WHERE k < 10").unwrap();
    // Inside a still-open transaction nothing has validated yet.
    assert_eq!(
        s2.last_profile().unwrap().validation,
        ValidationOutcome::Pending
    );

    s1.execute("COMMIT").unwrap();
    assert_eq!(
        s1.last_txn_profile().unwrap().validation,
        ValidationOutcome::Committed
    );

    // First committer wins: the second commit aborts with a WW conflict,
    // and the loss is recorded in both profiles and the registry.
    let err = s2.execute("COMMIT").unwrap_err();
    assert!(err.is_retryable_conflict());
    let tp = s2.last_txn_profile().unwrap();
    assert_eq!(tp.validation, ValidationOutcome::WwConflict);
    assert_eq!(
        s2.last_profile().unwrap().validation,
        ValidationOutcome::WwConflict
    );
    assert!(engine.metrics_snapshot().counter("catalog.ww_conflicts") >= 1);
}
