//! GC safety property: under ANY interleaving of DML, clones, drops,
//! restarts, compaction and GC sweeps, every table (and every
//! still-within-retention historical snapshot) remains fully readable —
//! garbage collection may only ever delete unreachable files.
//!
//! GC equivalence property: the engine's incremental sweep (per-table fate
//! maps carried between sweeps) deletes exactly the blobs, and reports
//! exactly the counts, of [`reference_gc`] — the from-scratch fold over
//! every manifest every listed table, and every table the test saw dropped
//! since the last reopen, ever committed.

// The `..Default::default()` in proptest_config is redundant against the
// vendored proptest stub but required by the real crate's larger config.
#![allow(clippy::needless_update)]

use polaris_core::sto::GcReport;
use polaris_core::{lineage, sto, EngineConfig, PolarisEngine, RecordBatch, SequenceId, Value};
use polaris_core::{DataType, Field, Schema, TableId};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_lst::{Manifest, ManifestAction};
use polaris_store::{BlobPath, LatencyModel, MemoryStore, ObjectStore, SimStore};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

// ---------------------------------------------------------------------
// The reference: GC as a full replay, deciding without deleting
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Fate {
    Active,
    /// Logically removed at this sequence.
    Removed(SequenceId),
}

/// A table the test dropped, remembered until the next reopen.
#[derive(Debug, Clone)]
struct Dropped {
    id: TableId,
    name: String,
    /// The sequence the drop committed at.
    at: SequenceId,
}

/// Merge `fate` for `path` into the view across tables: Active wins, and
/// among removals the latest.
fn merge(fates: &mut HashMap<String, Fate>, path: String, fate: Fate) {
    match (fates.get(&path), fate) {
        (Some(Fate::Active), _) => {}
        (Some(Fate::Removed(old)), Fate::Removed(new)) if new <= *old => {}
        _ => {
            fates.insert(path, fate);
        }
    }
}

/// What a sweep should delete and report, recomputed from the beginning of
/// time: every manifest of every listed table, and of every table in
/// `dropped`, is fetched and decoded, and the whole of `lake/` is judged.
///
/// WITHIN one table's manifest chain the LAST action for a path wins (a
/// file added and later removed is removed). A dropped table removed every
/// file it still referenced at its drop. ACROSS tables sharing lineage
/// (clones), Active wins — a file is reachable if any table still
/// references it — and among removals the latest sequence wins (retention
/// counts from the last table to let go). A removed file goes once it is
/// past retention AND no active transaction's snapshot predates its removal.
/// A table's Delta log, `lake/<name>/_delta_log/`, is Active while a table
/// of that name is listed and removed at the drop of one in `dropped`. A
/// blob nothing names goes once its stamp is below every active
/// transaction id.
fn reference_gc(engine: &Arc<PolarisEngine>, dropped: &[Dropped]) -> (GcReport, BTreeSet<String>) {
    let config = *engine.config();
    let catalog = engine.catalog();
    let min_active_txn = catalog.min_active_txn_id();
    // The oldest snapshot anything can still be reading, sampled before
    // this function's own transaction begins.
    let clock = catalog.now();
    let horizon = catalog
        .min_active_snapshot()
        .map_or(clock, |s| s.min(clock));
    let mut ctxn = catalog.begin(Default::default());
    let tables = catalog.list_tables(&mut ctxn).unwrap();
    let now = catalog.now().0;

    let mut fates: HashMap<String, Fate> = HashMap::new();
    let mut logs: HashMap<String, Fate> = HashMap::new();
    let live = tables.iter().map(|meta| (meta.id, &meta.name, None));
    let gone = dropped.iter().map(|d| (d.id, &d.name, Some(d.at)));
    for (id, name, dropped_at) in live.chain(gone) {
        // Phase 1: per-table replay, last action wins. A dropped table's
        // rows stay in the live catalog; its manifests go with its files,
        // once past retention, and then name nothing left to judge.
        let mut local: HashMap<String, Fate> = HashMap::new();
        for (seq, row) in catalog.visible_manifests(&mut ctxn, id).unwrap() {
            let raw = match engine
                .store()
                .get(&BlobPath::new(row.manifest_file.clone()).unwrap())
            {
                Ok(raw) => raw,
                Err(_) if dropped_at.is_some() => continue,
                Err(e) => panic!("{}: {e}", row.manifest_file),
            };
            // Committed manifest blobs are always reachable metadata.
            local.insert(row.manifest_file, Fate::Active);
            for action in Manifest::decode(&raw).unwrap().actions {
                match action {
                    ManifestAction::AddFile(e) => local.insert(e.path, Fate::Active),
                    ManifestAction::RemoveFile { path } => local.insert(path, Fate::Removed(seq)),
                    ManifestAction::AddDv { dv, .. } => local.insert(dv.path, Fate::Active),
                    ManifestAction::RemoveDv { dv_path, .. } => {
                        local.insert(dv_path, Fate::Removed(seq))
                    }
                };
            }
        }
        for (_, ckpt) in catalog.checkpoints(&mut ctxn, id).unwrap() {
            local.insert(ckpt.path, Fate::Active);
        }
        // Phase 2: merge into the shared-lineage view; a drop removes what
        // the table still referenced.
        let let_go = |fate| match (fate, dropped_at) {
            (Fate::Active, Some(at)) => Fate::Removed(at),
            _ => fate,
        };
        for (path, fate) in local {
            merge(&mut fates, path, let_go(fate));
        }
        merge(&mut logs, format!("lake/{name}"), let_go(Fate::Active));
    }
    catalog.abort(&mut ctxn);

    let mut report = GcReport::default();
    let mut doomed = BTreeSet::new();
    for blob in engine.store().list("lake/").unwrap() {
        let path = blob.path.as_str();
        let fate = match path.split_once("/_delta_log/") {
            Some((log, _)) => logs.get(log),
            None => fates.get(path),
        };
        let delete = match fate {
            Some(Fate::Active) => false,
            // Past retention, and below every active snapshot.
            Some(Fate::Removed(at)) => {
                now.saturating_sub(at.0) > config.retention_seqs && at.0 <= horizon.0
            }
            None if blob.stamp.0 < min_active_txn.0 => true,
            None => {
                report.retained_inflight += 1;
                continue;
            }
        };
        if delete {
            report.deleted += 1;
            doomed.insert(path.to_owned());
        } else {
            report.active += 1;
        }
    }
    (report, doomed)
}

fn lake(engine: &Arc<PolarisEngine>) -> BTreeSet<String> {
    let blobs = engine.store().list("lake/").unwrap();
    blobs.into_iter().map(|b| b.path.to_string()).collect()
}

/// Run the engine's GC and hold it to the reference, blob for blob.
fn gc_like_the_reference(engine: &Arc<PolarisEngine>, dropped: &[Dropped]) {
    let (expected, doomed) = reference_gc(engine, dropped);
    let before = lake(engine);
    let report = sto::garbage_collect(engine).unwrap();
    let after = lake(engine);
    let deleted: BTreeSet<String> = before.difference(&after).cloned().collect();
    assert_eq!(deleted, doomed, "incremental GC deleted other blobs");
    assert_eq!(report, expected, "incremental GC reported other counts");
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        table: u8,
        n: u8,
    },
    DeleteRange {
        table: u8,
        lo: i64,
        width: u8,
    },
    Clone {
        source: u8,
    },
    Restore {
        table: u8,
    },
    Compact {
        table: u8,
    },
    Gc,
    Abort {
        table: u8,
        n: u8,
    },
    DropTable {
        table: u8,
    },
    /// Create a table under the name of a dropped one.
    Recreate {
        table: u8,
    },
    /// Publish a table's Delta log.
    Publish {
        table: u8,
    },
    /// Kill and `open` over the same store: the STO state starts cold
    /// mid-history.
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..2, 1u8..12).prop_map(|(table, n)| Op::Insert { table, n }),
        2 => (0u8..2, 0i64..40, 1u8..15)
            .prop_map(|(table, lo, width)| Op::DeleteRange { table, lo, width }),
        1 => (0u8..2).prop_map(|source| Op::Clone { source }),
        1 => (0u8..2).prop_map(|table| Op::Restore { table }),
        1 => (0u8..2).prop_map(|table| Op::Compact { table }),
        2 => Just(Op::Gc),
        1 => (0u8..2, 1u8..6).prop_map(|(table, n)| Op::Abort { table, n }),
        1 => (0u8..4).prop_map(|table| Op::DropTable { table }),
        1 => (0u8..4).prop_map(|table| Op::Recreate { table }),
        1 => (0u8..4).prop_map(|table| Op::Publish { table }),
        1 => Just(Op::Reopen),
    ]
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("k", DataType::Int64)])
}

fn open(store: &Arc<MemoryStore>) -> Arc<PolarisEngine> {
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 6; // tight but nonzero: exercises both sides
    config.commit_log_enabled = true;
    PolarisEngine::open(Arc::new(Arc::clone(store)), pool, config).unwrap()
}

struct World {
    store: Arc<MemoryStore>,
    engine: Arc<PolarisEngine>,
    /// name -> expected sorted keys
    tables: Vec<(String, Vec<i64>)>,
    /// snapshots we promised to keep readable: (table, seq, expected keys)
    pinned: Vec<(String, SequenceId, Vec<i64>)>,
    /// Tables dropped since the last reopen.
    dropped: Vec<Dropped>,
    next_key: i64,
    next_clone: usize,
}

impl World {
    fn new() -> Self {
        let store = Arc::new(MemoryStore::new());
        let engine = open(&store);
        let mut s = engine.session();
        s.execute("CREATE TABLE t0 (k BIGINT)").unwrap();
        s.execute("CREATE TABLE t1 (k BIGINT)").unwrap();
        World {
            store,
            engine,
            tables: vec![("t0".into(), vec![]), ("t1".into(), vec![])],
            pinned: Vec::new(),
            dropped: Vec::new(),
            next_key: 0,
            next_clone: 0,
        }
    }

    fn name(&self, idx: u8) -> String {
        self.tables[idx as usize % self.tables.len()].0.clone()
    }

    fn idx(&self, idx: u8) -> usize {
        idx as usize % self.tables.len()
    }

    fn verify_all(&self) -> Result<(), TestCaseError> {
        let mut s = self.engine.session();
        for (name, expected) in &self.tables {
            let rows = s
                .query(&format!("SELECT k FROM {name} ORDER BY k"))
                .unwrap();
            let got: Vec<i64> = (0..rows.num_rows())
                .map(|i| rows.column(0).value(i).as_int().unwrap())
                .collect();
            prop_assert_eq!(&got, expected, "table {} diverged", name);
        }
        // Pinned snapshots within retention must stay readable.
        let now = self.engine.catalog().now().0;
        let retention = self.engine.config().retention_seqs;
        for (name, seq, expected) in &self.pinned {
            if now.saturating_sub(seq.0) <= retention {
                let rows = self
                    .engine
                    .session()
                    .query(&format!("SELECT k FROM {name} AS OF {} ORDER BY k", seq.0))
                    .unwrap();
                let got: Vec<i64> = (0..rows.num_rows())
                    .map(|i| rows.column(0).value(i).as_int().unwrap())
                    .collect();
                prop_assert_eq!(&got, expected, "snapshot {}@{} diverged", name, seq.0);
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, max_shrink_iters: 48, ..Default::default() })]

    #[test]
    fn gc_never_loses_reachable_data(ops in proptest::collection::vec(op_strategy(), 1..32)) {
        let mut w = World::new();
        for op in &ops {
            match op {
                Op::Insert { table, n } => {
                    let name = w.name(*table);
                    let keys: Vec<i64> = (0..*n as i64).map(|i| w.next_key + i).collect();
                    w.next_key += *n as i64;
                    let rows: Vec<Vec<Value>> =
                        keys.iter().map(|k| vec![Value::Int(*k)]).collect();
                    let batch = RecordBatch::from_rows(schema(), &rows).unwrap();
                    w.engine.session().insert_batch(&name, &batch).unwrap();
                    let i = w.idx(*table);
                    w.tables[i].1.extend(keys);
                    w.tables[i].1.sort_unstable();
                    // Pin this state for time-travel verification.
                    let seq = lineage::history(&w.engine, &name).unwrap().last().unwrap().0;
                    let expected = w.tables[i].1.clone();
                    w.pinned.push((name, seq, expected));
                }
                Op::DeleteRange { table, lo, width } => {
                    let name = w.name(*table);
                    let hi = lo + *width as i64;
                    w.engine
                        .session()
                        .execute(&format!("DELETE FROM {name} WHERE k >= {lo} AND k < {hi}"))
                        .unwrap();
                    let i = w.idx(*table);
                    w.tables[i].1.retain(|k| !(k >= lo && *k < hi));
                }
                Op::Clone { source } => {
                    let src = w.name(*source);
                    let dst = format!("clone{}", w.next_clone);
                    w.next_clone += 1;
                    lineage::clone_table(&w.engine, &src, &dst, None).unwrap();
                    let expected = w.tables[w.idx(*source)].1.clone();
                    w.tables.push((dst, expected));
                }
                Op::Restore { table } => {
                    let i = w.idx(*table);
                    let name = w.tables[i].0.clone();
                    // Restore to the most recent pinned snapshot of this
                    // table, if one exists.
                    if let Some((_, seq, expected)) = w
                        .pinned
                        .iter()
                        .rev()
                        .find(|(t, _, _)| *t == name)
                        .cloned()
                    {
                        lineage::restore_table_as_of(&w.engine, &name, seq).unwrap();
                        w.tables[i].1 = expected;
                    }
                }
                Op::Compact { table } => {
                    let name = w.name(*table);
                    let _ = sto::compact_table(&w.engine, &name).unwrap();
                }
                Op::Gc => gc_like_the_reference(&w.engine, &w.dropped),
                Op::Abort { table, n } => {
                    let name = w.name(*table);
                    let mut txn = w.engine.begin();
                    let rows: Vec<Vec<Value>> =
                        (0..*n as i64).map(|i| vec![Value::Int(90_000 + i)]).collect();
                    let batch = RecordBatch::from_rows(schema(), &rows).unwrap();
                    txn.insert(&name, &batch).unwrap();
                    txn.rollback();
                }
                Op::DropTable { table } => {
                    // Sources outlive their clones and clones their
                    // sources; the last table stays so later ops have one.
                    if w.tables.len() > 1 {
                        let (name, _) = w.tables.remove(w.idx(*table));
                        let id = w.engine.drop_table(&name).unwrap();
                        w.pinned.retain(|(t, _, _)| *t != name);
                        let at = SequenceId(w.engine.catalog().now().0);
                        w.dropped.push(Dropped { id, name, at });
                    }
                }
                Op::Recreate { table } => {
                    let live = |name: &String| w.tables.iter().any(|(t, _)| t == name);
                    let gone: Vec<String> =
                        w.dropped.iter().map(|d| d.name.clone()).filter(|n| !live(n)).collect();
                    if !gone.is_empty() {
                        let name = gone[*table as usize % gone.len()].clone();
                        w.engine
                            .session()
                            .execute(&format!("CREATE TABLE {name} (k BIGINT)"))
                            .unwrap();
                        w.tables.push((name, Vec::new()));
                    }
                }
                Op::Publish { table } => {
                    sto::publish_table(&w.engine, &w.name(*table)).unwrap();
                }
                Op::Reopen => {
                    // Nothing is shut down: only what reached the store
                    // survives, and the new engine's STO state is empty —
                    // it knows nothing of the drops before it.
                    w.engine = open(&w.store);
                    w.dropped.clear();
                }
            }
            w.verify_all()?;
        }
        // Final full maintenance + GC, then verify once more — and a sweep
        // after the tick's own compactions and checkpoints still agrees.
        sto::run_once(&w.engine).unwrap();
        w.verify_all()?;
        gc_like_the_reference(&w.engine, &w.dropped);
    }
}

/// A delete that fails mid-sweep aborts the sweep with some blobs gone and
/// some not. Whatever the state then holds, the next GC must delete exactly
/// what the from-scratch fold says is left to delete.
#[test]
fn failed_delete_mid_sweep_leaves_a_state_the_next_gc_agrees_with() {
    let faulty =
        Arc::new(SimStore::new(MemoryStore::new(), LatencyModel::ZERO).with_faults(0.0, 20260927));
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 0;
    let store: Arc<dyn ObjectStore> = Arc::new(Arc::clone(&faulty));
    let engine = PolarisEngine::new(store, pool, config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    // A warm state first, then garbage of every kind: files compacted
    // away, delete vectors superseded, an aborted transaction's leftovers.
    s.execute("INSERT INTO t VALUES (0)").unwrap();
    gc_like_the_reference(&engine, &[]);
    for round in 0..4 {
        for k in 1..5 {
            s.execute(&format!("INSERT INTO t VALUES ({})", round * 10 + k))
                .unwrap();
        }
        s.execute(&format!("DELETE FROM t WHERE k = {}", round * 10 + 1))
            .unwrap();
        sto::compact_table(&engine, "t").unwrap();
    }
    let mut txn = engine.begin();
    let batch = RecordBatch::from_rows(schema(), &[vec![Value::Int(99)]]).unwrap();
    txn.insert("t", &batch).unwrap();
    txn.rollback();

    let (_, doomed) = reference_gc(&engine, &[]);
    assert!(
        doomed.len() >= 8,
        "need a long sweep to interrupt: {doomed:?}"
    );
    let before = lake(&engine);
    // A sweep that fails on its very first delete changes nothing: go again
    // until one dies with part of the work done.
    let gone = loop {
        faulty.set_write_failure_rate(0.3);
        let swept = sto::garbage_collect(&engine);
        faulty.set_write_failure_rate(0.0);
        assert!(swept.is_err(), "no delete failed");
        let gone = before.difference(&lake(&engine)).count();
        if gone > 0 {
            break gone;
        }
    };
    assert!(gone < doomed.len(), "the failure must land mid-sweep");

    gc_like_the_reference(&engine, &[]);
    assert_eq!(
        reference_gc(&engine, &[]).1,
        BTreeSet::new(),
        "nothing is left"
    );
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(13));
}

/// An open transaction keeps reading the snapshot it began at, however
/// short the retention: files compacted away above its snapshot stay until
/// it ends, and go with the first sweep after.
#[test]
fn reader_pinned_across_compaction_and_gc_reads_every_row() {
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 0;
    let engine = PolarisEngine::new(Arc::new(MemoryStore::new()), pool, config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    // One small file per statement, all in one distribution: compaction
    // will merge every one of them away.
    for k in 0..6 {
        s.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
    }
    let mut reader = engine.session();
    reader.execute("BEGIN").unwrap();

    for round in 0..3 {
        let compacted = sto::compact_table(&engine, "t").unwrap();
        assert!(compacted.is_some(), "round {round} found nothing to merge");
        // A later commit puts the removal past a retention of zero.
        s.execute(&format!("INSERT INTO t VALUES ({})", 100 + round))
            .unwrap();
        gc_like_the_reference(&engine, &[]);
    }

    let rows = reader.query("SELECT k FROM t ORDER BY k").unwrap();
    let got: Vec<i64> = (0..rows.num_rows())
        .map(|i| rows.column(0).value(i).as_int().unwrap())
        .collect();
    assert_eq!(got, (0..6).collect::<Vec<i64>>());
    reader.execute("COMMIT").unwrap();

    let (_, doomed) = reference_gc(&engine, &[]);
    assert!(doomed.len() >= 6, "the reader's files are due: {doomed:?}");
    gc_like_the_reference(&engine, &[]);
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(9));
}

/// A durable engine over `store` that keeps no history past the newest
/// commit.
fn open_without_retention(store: &Arc<MemoryStore>) -> Arc<PolarisEngine> {
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let mut config = EngineConfig::for_testing();
    config.retention_seqs = 0;
    config.commit_log_enabled = true;
    PolarisEngine::open(Arc::new(Arc::clone(store)), pool, config).unwrap()
}

fn keys(s: &mut polaris_core::Session, table: &str) -> Vec<i64> {
    let rows = s
        .query(&format!("SELECT k FROM {table} ORDER BY k"))
        .unwrap();
    (0..rows.num_rows())
        .map(|i| rows.column(0).value(i).as_int().unwrap())
        .collect()
}

/// A table with 20 INSERTs and a published Delta log is dropped while a
/// reader is open; the engine keeps committing elsewhere and the STO ticks.
/// Its blobs stay while the reader runs — it reads every row — and the
/// ticks after it ends leave `lake/t/` empty, `_delta_log/` included. With
/// a reopen between the drop and the ticks (the reader ends with its
/// process), the ticks of the new engine empty it alike.
#[test]
fn a_dropped_table_leaves_the_lake_once_its_last_reader_ends() {
    for reopen in [false, true] {
        let store = Arc::new(MemoryStore::new());
        let mut engine = open_without_retention(&store);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (k BIGINT)").unwrap();
        s.execute("CREATE TABLE other (k BIGINT)").unwrap();
        for k in 0..20 {
            s.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
        }
        sto::run_once(&engine).unwrap();
        assert!(!store.list("lake/t/_delta_log/").unwrap().is_empty());
        let mut reader = engine.session();
        reader.execute("BEGIN").unwrap();
        assert_eq!(keys(&mut reader, "t"), (0..20).collect::<Vec<i64>>());
        engine.drop_table("t").unwrap();

        let tick = |engine: &Arc<PolarisEngine>, k: i64| {
            let mut s = engine.session();
            s.execute(&format!("INSERT INTO other VALUES ({k})"))
                .unwrap();
            sto::run_once(engine).unwrap();
        };
        if reopen {
            assert_eq!(keys(&mut reader, "t").len(), 20);
            drop((s, reader));
            engine = open_without_retention(&store);
        } else {
            for k in 0..3 {
                tick(&engine, k);
                assert_eq!(keys(&mut reader, "t"), (0..20).collect::<Vec<i64>>());
            }
            assert!(!store.list("lake/t/").unwrap().is_empty());
            reader.execute("COMMIT").unwrap();
        }
        for k in 10..13 {
            tick(&engine, k);
        }
        let left = store.list("lake/t/").unwrap();
        assert!(left.is_empty(), "reopen={reopen}: {left:?}");
        assert_eq!(
            keys(&mut engine.session(), "other").len(),
            if reopen { 3 } else { 6 }
        );
    }
}

/// A zero-copy clone shares its source's data root: dropping the source
/// leaves every blob the clone names, and only those.
#[test]
fn a_live_clone_keeps_what_it_names_of_a_dropped_source() {
    let store = Arc::new(MemoryStore::new());
    let engine = open_without_retention(&store);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    for k in 0..20 {
        s.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
    }
    lineage::clone_table(&engine, "t", "c", None).unwrap();
    s.execute("INSERT INTO t VALUES (100)").unwrap();
    sto::run_once(&engine).unwrap();
    engine.drop_table("t").unwrap();
    for k in 0..3 {
        s.execute(&format!("INSERT INTO c VALUES ({})", 200 + k))
            .unwrap();
        sto::run_once(&engine).unwrap();
    }
    let mut expected: Vec<i64> = (0..20).collect();
    expected.extend(200..203);
    assert_eq!(keys(&mut s, "c"), expected);

    // What the clone names: its manifests, their files and delete vectors,
    // and its checkpoints.
    let catalog = engine.catalog();
    let mut ctxn = catalog.begin(Default::default());
    let clone = catalog.table_by_name(&mut ctxn, "c").unwrap();
    let mut named = BTreeSet::new();
    for (_, row) in catalog.visible_manifests(&mut ctxn, clone.id).unwrap() {
        let raw = store
            .get(&BlobPath::new(row.manifest_file.clone()).unwrap())
            .unwrap();
        for action in Manifest::decode(&raw).unwrap().actions {
            match action {
                ManifestAction::AddFile(e) => named.insert(e.path),
                ManifestAction::AddDv { dv, .. } => named.insert(dv.path),
                _ => false,
            };
        }
        named.insert(row.manifest_file);
    }
    for (_, ckpt) in catalog.checkpoints(&mut ctxn, clone.id).unwrap() {
        named.insert(ckpt.path);
    }
    catalog.abort(&mut ctxn);
    let left: BTreeSet<String> = store
        .list("lake/t/")
        .unwrap()
        .into_iter()
        .map(|b| b.path.to_string())
        .collect();
    assert!(!left.is_empty());
    let unnamed: Vec<&String> = left.difference(&named).collect();
    assert!(
        unnamed.is_empty(),
        "the dropped source's own blobs stayed: {unnamed:?}"
    );
    assert!(store.list("lake/t/_delta_log/").unwrap().is_empty());
}

/// A sweep that runs between an lst checkpoint's upload and the commit of
/// the `Checkpoints` row naming it sees a blob no table names yet: it must
/// take it for in-flight work, or the row names a deleted blob and the
/// table no longer reads once its snapshot cache is gone.
#[test]
fn a_sweep_while_a_checkpoint_commits_keeps_the_checkpoint() {
    use polaris_store::Request;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Mutex};
    let uploaded = Arc::new(AtomicBool::new(false));
    let (held_tx, held_rx) = mpsc::channel::<()>();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (held_tx, go_rx) = (Mutex::new(held_tx), Mutex::new(go_rx));
    // Hold the log append of the commit that follows the checkpoint upload.
    let tap = {
        let uploaded = Arc::clone(&uploaded);
        move |r: Request<'_>| {
            if r.op == "put" && r.path.contains("/_ckpt/") {
                uploaded.store(true, Ordering::SeqCst);
            } else if r.op == "stage_block"
                && r.path.starts_with("sys/wal/")
                && uploaded.swap(false, Ordering::SeqCst)
            {
                held_tx.lock().unwrap().send(()).unwrap();
                go_rx.lock().unwrap().recv().unwrap();
            }
        }
    };
    let store = SimStore::new(MemoryStore::new(), LatencyModel::ZERO).with_tap(tap);
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let mut config = EngineConfig::for_testing();
    config.commit_log_enabled = true;
    let engine = PolarisEngine::open(Arc::new(store), pool, config).unwrap();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    for k in 0..4 {
        s.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
    }
    let checkpointer = Arc::clone(&engine);
    let checkpoint = std::thread::spawn(move || sto::checkpoint_table(&checkpointer, "t").unwrap());
    held_rx.recv().unwrap();
    let swept = sto::garbage_collect(&engine);
    go_tx.send(()).unwrap();
    assert!(checkpoint.join().unwrap().is_some());
    assert_eq!(swept.unwrap().deleted, 0);
    engine.invalidate_caches();
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(4));
}
