//! The published Delta log (§5.4), read as a foreign engine reads it: every
//! `_delta_log/` blob is parsed with `serde_json` alone, and the table at a
//! version is the newest `.checkpoint.json` at or below it with the versions
//! above it folded on in name order — and, alike, every version from the
//! first folded in name order. Nothing here uses the publisher.
//!
//! At every published version the fold must equal the engine's own state
//! `AS OF` that version: the same files with the same row counts and delete
//! vectors as a replay of the table's manifest chain, and the live row count
//! `SELECT COUNT(*) … AS OF` answers. The history covers inserts, DELETEs
//! (new and replaced delete vectors), compaction, a zero-copy clone and a
//! reopen between ticks.

use polaris_core::{lineage, sto, EngineConfig, PolarisEngine, Value};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_lst::{Manifest, ManifestAction};
use polaris_store::{BlobPath, MemoryStore, ObjectStore};
use serde_json::Value as Json;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A table as a reader sees it: data file path → (rows, delete vector as
/// `(path, cardinality)`).
type Files = BTreeMap<String, (u64, Option<(String, u64)>)>;

/// Fold one Delta action line into `files`, strictly: an add of a live
/// file, a delete vector for a missing one or the removal of a delete
/// vector that is not current fails the test.
fn fold_line(files: &mut Files, line: &Json, at: &str) {
    if let Some(info) = line.get("commitInfo") {
        assert!(info["polarisSequence"].as_u64().is_some(), "{at}: {line}");
        return;
    }
    let (adds, action) = match (line.get("add"), line.get("remove")) {
        (Some(add), None) => (true, add),
        (None, Some(remove)) => (false, remove),
        _ => panic!("{at}: not one add or remove: {line}"),
    };
    let path = action["path"].as_str().expect("an action names a file");
    let dv = action.get("deletionVector");
    match (adds, dv) {
        (true, None) => {
            let rows = action["stats"]["numRecords"].as_u64().expect("rows");
            let old = files.insert(path.to_owned(), (rows, None));
            assert!(old.is_none(), "{at}: {path} added twice");
        }
        (true, Some(dv)) => {
            let file = files.get_mut(path);
            let file = file.unwrap_or_else(|| panic!("{at}: DV for missing {path}"));
            let dv_path = dv["pathOrInlineDv"].as_str().expect("dv path");
            let cardinality = dv["cardinality"].as_u64().expect("dv cardinality");
            let replaced = file.1.replace((dv_path.to_owned(), cardinality));
            assert!(replaced.is_none(), "{at}: DV added over {replaced:?}");
        }
        (false, None) => {
            assert!(
                files.remove(path).is_some(),
                "{at}: remove of missing {path}"
            );
        }
        (false, Some(dv)) => {
            let file = files.get_mut(path);
            let file = file.unwrap_or_else(|| panic!("{at}: DV removal for missing {path}"));
            let current = file.1.take().map(|(p, _)| p);
            assert_eq!(current.as_deref(), dv["pathOrInlineDv"].as_str(), "{at}");
        }
    }
}

fn parse(store: &dyn ObjectStore, path: &BlobPath) -> Vec<Json> {
    let raw = store.get(path).unwrap();
    let text = std::str::from_utf8(&raw).unwrap();
    text.lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect()
}

/// Every published version of the log under `table_root`, each with the
/// table a reader folds for it. A reader may start from the newest
/// checkpoint at or below the version, or from the first version with no
/// checkpoint at all; both must give the same table.
fn read_log(store: &dyn ObjectStore, table_root: &str) -> Vec<(u64, Files)> {
    let mut versions = BTreeMap::new();
    let mut checkpoints = BTreeMap::new();
    for blob in store.list(&format!("{table_root}/_delta_log/")).unwrap() {
        let name = blob.path.file_name().to_owned();
        let (seq, suffix) = name.split_once('.').unwrap();
        let seq: u64 = seq.parse().unwrap();
        let lines = parse(store, &blob.path);
        match suffix {
            "json" => versions.insert(seq, lines),
            "checkpoint.json" => checkpoints.insert(seq, lines),
            other => panic!("unexpected log entry {other}"),
        };
    }
    assert!(
        checkpoints.keys().all(|c| versions.contains_key(c)),
        "a checkpoint sits at a published version"
    );
    let mut out = Vec::new();
    let mut from_first = Files::new();
    for (&v, lines) in &versions {
        for line in lines {
            fold_line(&mut from_first, line, &format!("{table_root} version {v}"));
        }
        let mut files = Files::new();
        let start = match checkpoints.range(..=v).next_back() {
            Some((&c, lines)) => {
                for line in lines {
                    fold_line(&mut files, line, &format!("{table_root} checkpoint {c}"));
                }
                c
            }
            None => 0,
        };
        for (seq, lines) in versions.range(..=v).filter(|(seq, _)| **seq > start) {
            for line in lines {
                fold_line(&mut files, line, &format!("{table_root} version {seq}"));
            }
        }
        assert_eq!(
            files, from_first,
            "{table_root} {v}: checkpoint against versions"
        );
        out.push((v, files));
    }
    out
}

/// The engine's side: the table's manifest chain through `v`, replayed.
fn replay_chain(engine: &Arc<PolarisEngine>, table: &str, v: u64) -> Files {
    let mut files = Files::new();
    for (seq, manifest_file) in lineage::history(engine, table).unwrap() {
        if seq.0 > v {
            break;
        }
        let raw = engine
            .store()
            .get(&BlobPath::new(manifest_file).unwrap())
            .unwrap();
        for action in Manifest::decode(&raw).unwrap().actions {
            match action {
                ManifestAction::AddFile(e) => {
                    files.insert(e.path, (e.rows, None));
                }
                ManifestAction::RemoveFile { path } => {
                    files.remove(&path);
                }
                ManifestAction::AddDv { data_file, dv } => {
                    files.get_mut(&data_file).unwrap().1 = Some((dv.path, dv.cardinality));
                }
                ManifestAction::RemoveDv { data_file, .. } => {
                    files.get_mut(&data_file).unwrap().1 = None;
                }
            }
        }
    }
    files
}

/// Check every published version of `table` (its log under `table_root`)
/// and return how many there are.
fn check_log(engine: &Arc<PolarisEngine>, table: &str, table_root: &str) -> usize {
    let log = read_log(&**engine.store(), table_root);
    let mut s = engine.session();
    for (v, files) in &log {
        assert_eq!(files, &replay_chain(engine, table, *v), "{table} AS OF {v}");
        let live: u64 = files
            .values()
            .map(|(rows, dv)| rows - dv.as_ref().map_or(0, |(_, n)| *n))
            .sum();
        let counted = s
            .query(&format!("SELECT COUNT(*) AS n FROM {table} AS OF {v}"))
            .unwrap();
        assert_eq!(
            counted.row(0)[0],
            Value::Int(live as i64),
            "{table} AS OF {v}"
        );
    }
    log.len()
}

fn open(store: &Arc<MemoryStore>) -> Arc<PolarisEngine> {
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let config = EngineConfig {
        commit_log_enabled: true,
        // One file per INSERT, so a large file keeps its delete vector
        // through compaction and a later DELETE replaces it.
        distributions: 1,
        // Every version stays readable `AS OF`.
        retention_seqs: 1 << 20,
        ..EngineConfig::for_testing()
    };
    PolarisEngine::open(Arc::clone(store) as Arc<dyn ObjectStore>, pool, config).unwrap()
}

fn run(engine: &Arc<PolarisEngine>, statements: &[&str]) {
    let mut s = engine.session();
    for sql in statements {
        s.execute(sql).unwrap();
    }
}

#[test]
fn a_foreign_reader_folds_the_log_to_the_engines_snapshots() {
    let store = Arc::new(MemoryStore::new());
    let engine = open(&store);
    run(&engine, &["CREATE TABLE t (k BIGINT, v BIGINT)"]);
    // One large file, which compaction leaves alone: it keeps its delete
    // vector from tick to tick, and each round's DELETE replaces it.
    let large: Vec<String> = (1000..1040).map(|k| format!("({k}, 0)")).collect();
    run(
        &engine,
        &[&format!("INSERT INTO t VALUES {}", large.join(", "))],
    );
    let mut compactions = 0;
    for round in 0..3i64 {
        // Small inserts, which compaction merges, then a DELETE of a row of
        // one of them and of a row of the large file.
        for k in round * 10..round * 10 + 6 {
            run(&engine, &[&format!("INSERT INTO t VALUES ({k}, {k})")]);
        }
        let delete = format!(
            "DELETE FROM t WHERE k = {} OR k = {}",
            round * 10,
            1000 + round
        );
        run(&engine, &[&delete]);
        compactions += sto::run_once(&engine).unwrap().compactions;
    }
    assert!(compactions > 0, "the history holds a compaction");
    lineage::clone_table(&engine, "t", "c", None).unwrap();
    run(
        &engine,
        &["INSERT INTO c VALUES (900, 1)", "DELETE FROM c WHERE k = 1"],
    );
    run(&engine, &["INSERT INTO t VALUES (901, 1)"]);
    sto::run_once(&engine).unwrap();

    // A reopen between ticks: the next tick continues both logs from their
    // newest versions.
    drop(engine);
    let engine = open(&store);
    run(
        &engine,
        &["INSERT INTO t VALUES (902, 1)", "DELETE FROM t WHERE v = 0"],
    );
    run(
        &engine,
        &[
            "INSERT INTO c VALUES (903, 1)",
            "UPDATE c SET v = 2 WHERE k = 900",
        ],
    );
    sto::run_once(&engine).unwrap();
    run(&engine, &["INSERT INTO t VALUES (904, 1)"]);
    assert_eq!(sto::publish_table(&engine, "t").unwrap(), 1);

    // One version per publish: five ticks and one publish, for t's 26 user
    // commits and its compactions.
    assert_eq!(check_log(&engine, "t", "lake/t"), 6, "t's versions");
    // The clone has a log of its own, from the state it was cloned with.
    assert_eq!(check_log(&engine, "c", "lake/c"), 2, "c's versions");
    let t_log = engine.store().list("lake/t/_delta_log/").unwrap();
    assert!(
        t_log
            .iter()
            .any(|b| b.path.as_str().ends_with(".checkpoint.json")),
        "the history holds a checkpoint"
    );
    let replaced_dvs = t_log
        .iter()
        .flat_map(|b| parse(&**engine.store(), &b.path))
        .filter(|line| {
            line.get("remove")
                .and_then(|r| r.get("deletionVector"))
                .is_some()
        })
        .count();
    assert!(replaced_dvs > 0, "the history replaces a delete vector");
}

/// A table re-created under a dropped table's name starts a log of its own:
/// its first publish finds the dropped table's versions and deletes them
/// instead of continuing them, so the fold counts the new table's rows
/// only.
#[test]
fn a_re_created_table_does_not_continue_its_predecessor_s_log() {
    let store = Arc::new(MemoryStore::new());
    let engine = open(&store);
    run(
        &engine,
        &[
            "CREATE TABLE t (k BIGINT, v BIGINT)",
            "INSERT INTO t VALUES (1, 1)",
            "INSERT INTO t VALUES (2, 2)",
        ],
    );
    assert_eq!(sto::publish_table(&engine, "t").unwrap(), 2);
    engine.drop_table("t").unwrap();
    run(
        &engine,
        &[
            "CREATE TABLE t (k BIGINT, v BIGINT)",
            "INSERT INTO t VALUES (3, 3)",
        ],
    );
    assert_eq!(sto::publish_table(&engine, "t").unwrap(), 1);
    assert_eq!(check_log(&engine, "t", "lake/t"), 1, "t's versions");
    let (_, files) = read_log(&**engine.store(), "lake/t").pop().unwrap();
    let rows: u64 = files.values().map(|(rows, _)| rows).sum();
    assert_eq!(rows, 1);
}
