//! The commit path under adverse conditions: store faults and node loss
//! while manifests are staged and published, the orphaned-manifest cleanup
//! on every non-commit exit path, and a validation loser that publishes
//! nothing.

use polaris_core::{
    DataType, EngineConfig, Field, PolarisEngine, RecordBatch, Schema, SequenceId,
    StatementOutcome, Value,
};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{FaultyStore, MemoryStore, ObjectStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

type ChaosStore = Arc<FaultyStore<MemoryStore>>;

/// Engine over a fault-injecting store, with group commit enabled so the
/// sequencer batch path runs under chaos too.
fn chaos_engine(write_failure_rate: f64, seed: u64) -> (Arc<PolarisEngine>, ChaosStore) {
    let faulty = Arc::new(FaultyStore::new(
        MemoryStore::new(),
        write_failure_rate,
        seed,
    ));
    let pool = Arc::new(ComputePool::with_topology(2, 4, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    let config = EngineConfig {
        group_commit_max_batch: 4,
        ..EngineConfig::for_testing()
    };
    let engine = PolarisEngine::new(Arc::clone(&faulty) as Arc<dyn ObjectStore>, pool, config);
    faulty.bind_metrics(engine.metrics());
    (engine, faulty)
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

fn count(engine: &Arc<PolarisEngine>, table: &str) -> i64 {
    let mut s = engine.session();
    let batch = s
        .query(&format!("SELECT COUNT(k) AS c FROM {table}"))
        .unwrap();
    match batch.row(0)[0] {
        Value::Int(n) => n,
        ref other => panic!("COUNT returned {other:?}"),
    }
}

#[test]
fn rollback_discards_staged_manifest_and_counts_orphan() {
    let (engine, _faulty) = chaos_engine(0.0, 7);
    engine.create_table("t", &int_schema()).unwrap();
    let mut s = engine.session();
    s.execute("BEGIN").unwrap();
    s.insert_batch("t", &rows(64, 0)).unwrap();
    s.execute("ROLLBACK").unwrap();

    let snap = engine.metrics_snapshot();
    assert_eq!(
        snap.counter("store.orphaned_manifests"),
        1,
        "rollback must discard the staged per-txn manifest blob"
    );
    // Nothing under any _log/ prefix survived: statements only stage, and
    // the rollback deleted the blob (staged blocks and all).
    let blobs = engine.store().list("").unwrap();
    assert!(
        blobs.iter().all(|m| !m.path.as_str().contains("/_log/")),
        "no manifest blob may survive a rollback: {blobs:?}"
    );
    assert_eq!(count(&engine, "t"), 0);
}

#[test]
fn abandoned_transaction_drop_discards_staged_manifest() {
    let (engine, _faulty) = chaos_engine(0.0, 11);
    engine.create_table("t", &int_schema()).unwrap();
    {
        let mut s = engine.session();
        s.execute("BEGIN").unwrap();
        s.insert_batch("t", &rows(32, 0)).unwrap();
        // Session dropped with the transaction still open.
    }
    assert_eq!(
        engine
            .metrics_snapshot()
            .counter("store.orphaned_manifests"),
        1,
        "dropping an open transaction must discard its staged manifest"
    );
    assert_eq!(count(&engine, "t"), 0);
}

/// A commit whose net delta is empty for a touched table (DELETE matching
/// nothing stages blocks but publishes none) must not leave that table's
/// blob behind.
#[test]
fn empty_delta_table_blob_is_discarded_at_commit() {
    let (engine, _faulty) = chaos_engine(0.0, 13);
    engine.create_table("t", &int_schema()).unwrap();
    let mut s = engine.session();
    s.insert_batch("t", &rows(64, 0)).unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("DELETE FROM t WHERE k > 1000000").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(
        engine
            .metrics_snapshot()
            .counter("store.orphaned_manifests"),
        1,
        "a staged-only blob with an empty net delta is an orphan at commit"
    );
    assert_eq!(count(&engine, "t"), 64);
}

/// Publication happens in the commit protocol's prepare stage, after
/// validation: the loser of a write-write conflict never issues its
/// `commit_block_list` — it only discards the blob it staged.
#[test]
fn validation_loser_discards_its_manifest_without_publishing_it() {
    let (engine, _faulty) = chaos_engine(0.0, 17);
    engine.create_table("t", &int_schema()).unwrap();
    engine.session().insert_batch("t", &rows(8, 0)).unwrap();
    let counter = |name: &str| engine.metrics_snapshot().counter(name);

    let (mut winner, mut loser) = (engine.session(), engine.session());
    for s in [&mut winner, &mut loser] {
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE t SET v = v + 1 WHERE k = 3").unwrap();
    }
    let published = counter("store.commits");
    winner.execute("COMMIT").unwrap();
    assert_eq!(counter("store.commits"), published + 1);
    assert_eq!(counter("store.orphaned_manifests"), 0);

    let err = loser.execute("COMMIT").unwrap_err();
    assert!(err.is_retryable_conflict(), "first committer wins: {err}");
    assert_eq!(
        counter("store.commits"),
        published + 1,
        "the loser must not publish the blob it is about to delete"
    );
    assert_eq!(counter("store.orphaned_manifests"), 1);
    let blobs = engine.store().list("lake/t/_log/").unwrap();
    assert_eq!(blobs.len(), 2, "the load and the winner: {blobs:?}");
}

/// Multi-writer chaos while commits stage and publish: store faults and
/// write-node loss while commits pipeline through the group-commit
/// sequencer. Every transaction must eventually commit, the data must be
/// exact, and the published sequences must stay dense and unique — batch
/// members are neither lost nor duplicated.
#[test]
fn concurrent_commits_survive_store_faults_and_node_loss() {
    const WRITERS: usize = 4;
    const TXNS: usize = 10;
    const ROWS: i64 = 48;

    let (engine, faulty) = chaos_engine(0.0, 4242);
    for w in 0..WRITERS {
        engine
            .create_table(&format!("t{w}"), &int_schema())
            .unwrap();
    }
    faulty.set_write_failure_rate(0.08);

    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Kill one Write node at a time and replace it, so write and
            // publish attempts — on lanes and on the committing thread —
            // see NodeLost mid-body but capacity survives.
            let mut fresh = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let added = engine.pool().add_nodes(WorkloadClass::Write, 1, 2);
                std::thread::sleep(std::time::Duration::from_millis(3));
                if let Some(id) = fresh.pop() {
                    engine.pool().kill_node(id);
                }
                fresh.extend(added);
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        })
    };

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let table = format!("t{w}");
                let mut s = engine.session();
                let mut seqs: Vec<SequenceId> = Vec::new();
                for i in 0..TXNS {
                    // Store faults can exhaust a task's retry budget in
                    // either the insert fan-out or the commit's publication;
                    // both abort the transaction cleanly (no sequence
                    // consumed), so retry the whole transaction. A failed
                    // statement leaves the transaction open — roll it
                    // back explicitly before retrying.
                    let mut tries = 0;
                    loop {
                        s.execute("BEGIN").unwrap();
                        let outcome = match s.insert_batch(&table, &rows(ROWS, (i as i64) * ROWS)) {
                            Ok(_) => s.execute("COMMIT"),
                            Err(e) => {
                                s.execute("ROLLBACK").unwrap();
                                Err(e)
                            }
                        };
                        match outcome {
                            Ok(StatementOutcome::Committed(Some(seq))) => {
                                seqs.push(seq);
                                break;
                            }
                            Ok(other) => panic!("write commit returned {other:?}"),
                            Err(e) => {
                                tries += 1;
                                assert!(tries < 50, "commit kept failing: {e}");
                            }
                        }
                    }
                }
                seqs
            })
        })
        .collect();

    let mut seqs: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .map(|s| s.0)
        .collect();
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    faulty.set_write_failure_rate(0.0);

    // Dense, unique, publication-ordered commit clock: exactly one
    // sequence per committed transaction, no holes, no duplicates.
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), WRITERS * TXNS, "a sequence was duplicated");
    assert_eq!(
        seqs.last().unwrap() - seqs.first().unwrap() + 1,
        (WRITERS * TXNS) as u64,
        "the commit clock must stay dense under faults and node loss"
    );
    // Every committed transaction's data is readable and exact.
    for w in 0..WRITERS {
        assert_eq!(count(&engine, &format!("t{w}")), TXNS as i64 * ROWS);
    }
    let (write_faults, _) = faulty.injected_faults();
    assert!(write_faults > 0, "chaos round must actually inject faults");
}

/// A manifest upload that exhausts its retries aborts the commit without
/// consuming a sequence, surfaces an infrastructure error (not a
/// conflict), and a clean retry of the whole transaction succeeds.
#[test]
fn upload_failure_aborts_commit_and_clean_retry_succeeds() {
    let (engine, faulty) = chaos_engine(0.0, 99);
    engine.create_table("t", &int_schema()).unwrap();
    let mut s = engine.session();
    s.execute("BEGIN").unwrap();
    s.insert_batch("t", &rows(64, 0)).unwrap();
    faulty.set_write_failure_rate(1.0);
    let err = s.execute("COMMIT").unwrap_err();
    assert!(
        !err.is_retryable_conflict(),
        "an upload failure is infrastructure, not a WW conflict: {err}"
    );
    faulty.set_write_failure_rate(0.0);
    assert_eq!(
        count(&engine, "t"),
        0,
        "the failed commit published nothing"
    );

    // Same work, healthy store: commits with a sequence and exact data.
    s.execute("BEGIN").unwrap();
    s.insert_batch("t", &rows(64, 0)).unwrap();
    match s.execute("COMMIT").unwrap() {
        StatementOutcome::Committed(Some(_)) => {}
        other => panic!("retry must commit with a sequence, got {other:?}"),
    }
    assert_eq!(count(&engine, "t"), 64);
}
