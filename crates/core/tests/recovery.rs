//! Crash-recovery integration: durable restarts, the torn-tail rule,
//! double-replay idempotence, checkpoint pruning, freeze-crash aborts — and
//! the recoverability oracle: whatever the engine did, its checkpoint blob
//! folds to the catalog it stood for, and losing the newest frame loses
//! nothing.

// The `..Default::default()` in proptest_config is redundant against the
// vendored proptest stub but required by the real crate's larger config.
#![allow(clippy::needless_update)]

use polaris_catalog::{
    Catalog, CatalogError, CatalogImage, CatalogKey, CatalogValue, IsolationLevel, Timestamp,
};
use polaris_core::recovery::{fold_checkpoint, CHECKPOINT_PREFIX, WAL_PREFIX};
use polaris_core::{lineage, sto, EngineConfig, PolarisEngine, PolarisError, Value};
use polaris_dcp::ComputePool;
use polaris_store::{
    BlobPath, Bytes, LatencyModel, MemoryStore, ObjectStore, Request, SimStore, Stamp,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn pool() -> Arc<ComputePool> {
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(polaris_dcp::WorkloadClass::System, 2, 2);
    pool
}

fn durable_config() -> EngineConfig {
    EngineConfig {
        commit_log_enabled: true,
        // Small segments and frequent checkpoints so short tests exercise
        // rolling and pruning, not just the single-segment happy path.
        log_segment_bytes: 8 * 1024,
        log_checkpoint_every: 0,
        ..EngineConfig::for_testing()
    }
}

fn open(store: &Arc<MemoryStore>, config: EngineConfig) -> Arc<PolarisEngine> {
    let dyn_store: Arc<dyn ObjectStore> = Arc::new(Arc::clone(store));
    PolarisEngine::open(dyn_store, pool(), config).unwrap()
}

fn count(engine: &Arc<PolarisEngine>, table: &str) -> i64 {
    let mut s = engine.session();
    let rows = s
        .query(&format!("SELECT COUNT(*) AS n FROM {table}"))
        .unwrap();
    match rows.row(0)[0] {
        Value::Int(n) => n,
        ref v => panic!("unexpected count value {v:?}"),
    }
}

/// `_log/txn-*` manifest blobs under `lake/` that no `Manifests` row of
/// the engine's catalog names.
fn unreferenced_manifests(engine: &Arc<PolarisEngine>) -> Vec<String> {
    let referenced: HashSet<String> = engine
        .catalog()
        .export()
        .unwrap()
        .rows
        .into_values()
        .filter_map(|value| match value {
            CatalogValue::ManifestRow(row) => Some(row.manifest_file),
            _ => None,
        })
        .collect();
    let lake = engine.store().list("lake/").unwrap();
    (lake.into_iter().map(|meta| meta.path.to_string()))
        .filter(|path| path.contains("/_log/txn-") && !referenced.contains(path))
        .collect()
}

/// Begin and end transactions until `engine` hands out ids from `next_txn`
/// on — the id a dead engine would have handed out next, which a restart
/// may hand out again — then sweep: only now may GC judge what that engine
/// stamped.
fn gc_past(engine: &Arc<PolarisEngine>, next_txn: u64) -> sto::GcReport {
    while engine.catalog().min_active_txn_id().0 < next_txn {
        engine.begin().rollback();
    }
    sto::garbage_collect(engine).unwrap()
}

#[test]
fn kill_and_reopen_recovers_every_acknowledged_commit() {
    let store = Arc::new(MemoryStore::new());
    let clock_before;
    {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
        for i in 0..5 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 10))
                .unwrap();
        }
        s.execute("DELETE FROM t WHERE id = 0").unwrap();
        assert_eq!(count(&engine, "t"), 4);
        clock_before = engine.catalog().now().0;
        // Simulated kill -9: the engine is dropped with no shutdown
        // hook; only what reached the store survives.
    }
    let engine = open(&store, durable_config());
    let report = engine.recovery_report().expect("opened with durability");
    assert_eq!(
        engine.catalog().now().0,
        clock_before,
        "recovered clock must equal the pre-crash clock (dense, no gaps)"
    );
    assert_eq!(report.recovered_clock, clock_before);
    assert!(report.replayed_commits > 0, "log tail replayed: {report:?}");
    assert_eq!(report.torn_records, 0);
    assert_eq!(count(&engine, "t"), 4);
    // The recovered engine accepts new work at fresh timestamps.
    let mut s = engine.session();
    s.execute("INSERT INTO t VALUES (100, 1000)").unwrap();
    assert_eq!(count(&engine, "t"), 5);
    assert!(engine.catalog().now().0 > clock_before);
}

#[test]
fn torn_tail_is_discarded_and_prefix_survives() {
    let store = Arc::new(MemoryStore::new());
    {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..4 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    // Tear the newest segment mid-frame: a crash inside the final append.
    let segs = store.list(WAL_PREFIX).unwrap();
    let last = segs.last().expect("wal segments exist").path.clone();
    let raw = store.get(&last).unwrap();
    assert!(raw.len() > 7);
    let torn = raw.slice(0..raw.len() - 7);
    store.put(&last, torn, Stamp::SYSTEM).unwrap();

    let engine = open(&store, durable_config());
    let report = engine.recovery_report().unwrap();
    assert!(report.torn_records >= 1, "tear detected: {report:?}");
    // The torn record held the last INSERT; the consistent prefix —
    // including every earlier acknowledged commit — is intact, and the
    // clock is dense up to the tear.
    assert_eq!(count(&engine, "t"), 3);
    let mut s = engine.session();
    s.execute("INSERT INTO t VALUES (99)").unwrap();
    assert_eq!(count(&engine, "t"), 4);
}

/// The dense clock: a segment missing from the middle of the log is
/// acknowledged history lost below everything after it, so `open` fails
/// naming the gap — it never opens the shorter catalog before it.
#[test]
fn a_gap_in_the_log_fails_open() {
    let store = Arc::new(MemoryStore::new());
    let config = EngineConfig {
        log_segment_bytes: 1, // roll every append: one commit per segment
        log_checkpoint_every: 0,
        ..durable_config()
    };
    {
        let engine = open(&store, config);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..4 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let copy = copy_of(&store);
    let segs = copy.list(WAL_PREFIX).unwrap();
    assert_eq!(segs.len(), 5, "one segment per commit");
    let first_ts = |at: usize| -> u64 {
        let name = segs[at].path.as_str();
        let name = name.strip_prefix(WAL_PREFIX).unwrap();
        name.trim_start_matches("seg-")
            .trim_end_matches(".wal")
            .parse()
            .unwrap()
    };
    copy.delete(&segs[2].path).unwrap();
    let dyn_store: Arc<dyn ObjectStore> = Arc::new(Arc::clone(&copy));
    match PolarisEngine::open(dyn_store, pool(), config) {
        Err(PolarisError::Catalog(CatalogError::ReplayGap { expected, found })) => {
            assert_eq!((expected, found), (first_ts(2), first_ts(3)));
        }
        Err(e) => panic!("expected a replay gap, got {e}"),
        Ok(engine) => panic!(
            "opened a catalog at clock {} with commit {} missing",
            engine.catalog().now().0,
            first_ts(2)
        ),
    }
    // The store with its log whole still opens, every commit there.
    assert_eq!(count(&open(&store, config), "t"), 4);
}

/// A table created and dropped after the last checkpoint generation is in
/// no image, only in the log tail: recovery still allocates table ids
/// above it.
#[test]
fn recovery_never_reuses_a_table_id() {
    let store = Arc::new(MemoryStore::new());
    let table_id = |engine: &Arc<PolarisEngine>, name: &str| {
        let catalog = engine.catalog();
        let mut txn = catalog.begin(IsolationLevel::Snapshot);
        let id = catalog.table_by_name(&mut txn, name).unwrap().id;
        catalog.abort(&mut txn);
        id
    };
    let dropped = {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        let writer = engine.commit_log_writer().unwrap();
        writer.checkpoint(engine.catalog()).unwrap();
        s.execute("CREATE TABLE u (id BIGINT)").unwrap();
        assert!(table_id(&engine, "u") > table_id(&engine, "t"));
        engine.drop_table("u").unwrap()
    };
    let engine = open(&store, durable_config());
    let report = engine.recovery_report().unwrap();
    assert!(report.checkpoint_clock > 0 && report.replayed_commits == 2);
    engine
        .session()
        .execute("CREATE TABLE w (id BIGINT)")
        .unwrap();
    assert!(
        table_id(&engine, "w") > dropped,
        "table id {dropped:?} reused"
    );
}

#[test]
fn double_replay_is_idempotent() {
    let store = Arc::new(MemoryStore::new());
    {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE a (id BIGINT)").unwrap();
        s.execute("CREATE TABLE b (id BIGINT)").unwrap();
        s.execute("INSERT INTO a VALUES (1), (2)").unwrap();
        s.execute("INSERT INTO b VALUES (3)").unwrap();
        s.execute("UPDATE a SET id = 7 WHERE id = 2").unwrap();
    }
    let first = {
        let engine = open(&store, durable_config());
        engine.catalog().export().unwrap()
    };
    let second = {
        let engine = open(&store, durable_config());
        engine.catalog().export().unwrap()
    };
    assert_eq!(
        first, second,
        "reopening twice must reconstruct the identical catalog image"
    );
    assert!(first.clock > 0);
}

#[test]
fn checkpoints_prune_covered_segments_and_bound_replay() {
    const EVERY: u64 = 3;
    let store = Arc::new(MemoryStore::new());
    let config = EngineConfig {
        log_segment_bytes: 1, // roll every append: one batch per segment
        log_checkpoint_every: EVERY,
        ..durable_config()
    };
    {
        let engine = open(&store, config);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..12 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    // One blob of several frames — two blobs only between a re-base and the
    // generation after it.
    let ckpts = checkpoint_blobs(&store);
    assert!((1..=2).contains(&ckpts.len()), "found {}", ckpts.len());
    let frame_counts: Vec<usize> = ckpts.iter().map(|(_, raw)| frames(raw).len()).collect();
    assert!(
        frame_counts.iter().any(|n| *n >= 2) && frame_counts.iter().sum::<usize>() <= 4,
        "generations append frames to a blob: {frame_counts:?}"
    );
    let newest = &ckpts.last().unwrap().1;
    // The log is pruned up to the frame before the newest: what is left is
    // two generations' worth of one-batch segments, not all 13.
    let segs = store.list(WAL_PREFIX).unwrap();
    assert!(
        segs.len() as u64 <= 2 * EVERY,
        "covered segments must be pruned, found {}",
        segs.len()
    );
    let engine = open(&store, config);
    let report = engine.recovery_report().unwrap();
    assert_eq!(
        report.checkpoint_clock,
        fold_checkpoint(newest).unwrap().clock,
        "recovered via the newest frame"
    );
    assert!(
        report.replayed_commits < EVERY,
        "the generation cadence bounds the tail replay: {report:?}"
    );
    assert_eq!(count(&engine, "t"), 12);
}

#[test]
fn frozen_crash_mid_wal_append_aborts_and_leaves_no_trace() {
    let inner = Arc::new(MemoryStore::new());
    let baseline_clock;
    {
        let engine = open(&inner, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        baseline_clock = engine.catalog().now().0;
    }
    // Process #2 dies inside the WAL append — after staging the frame,
    // before the commit-block-list publishes it.
    let chaos = Arc::new(SimStore::new(Arc::clone(&inner), LatencyModel::ZERO));
    chaos.arm("commit_block_list", "sys/wal/", 1);
    let next_txn = {
        let dyn_store: Arc<dyn ObjectStore> = Arc::clone(&chaos) as Arc<dyn ObjectStore>;
        let engine = PolarisEngine::open(dyn_store, pool(), durable_config()).unwrap();
        let mut s = engine.session();
        let err = s.execute("INSERT INTO t VALUES (2)");
        assert!(err.is_err(), "commit must not be acknowledged: {err:?}");
        assert!(chaos.killed());
        engine.catalog().min_active_txn_id().0
    };
    // Process #3 reopens over the same durable state.
    let engine = open(&inner, durable_config());
    let report = engine.recovery_report().unwrap();
    assert_eq!(
        engine.catalog().now().0,
        baseline_clock,
        "the unacknowledged commit consumed no timestamp"
    );
    assert_eq!(count(&engine, "t"), 1, "aborted insert left no rows");
    assert_eq!(report.torn_records, 0, "staged-only block never surfaced");
    // Zero orphaned manifests once GC may judge them: the dying process
    // uploaded its manifest but could not clean up after the abort, and
    // recovery lists nothing under `lake/`, so the orphan is there until
    // the first sweep past its transaction id.
    assert_eq!(unreferenced_manifests(&engine).len(), 1);
    assert!(gc_past(&engine, next_txn).deleted >= 1);
    assert_eq!(unreferenced_manifests(&engine), Vec::<String>::new());
    assert_eq!(count(&engine, "t"), 1);
}

#[test]
fn disabled_commit_log_writes_nothing() {
    let store = Arc::new(MemoryStore::new());
    let engine = open(&store, EngineConfig::for_testing());
    assert!(engine.recovery_report().is_none());
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(store.list("sys/").unwrap().is_empty());
}

/// Every acknowledged commit is recoverable by something: an engine that
/// logs (`open` with the flag) needs no catalog backup, and one that does
/// not (`new`, whatever the flag says) gets one from the STO tick.
#[test]
fn an_engine_either_logs_its_commits_or_backs_its_catalog_up() {
    for durable in [false, true] {
        let store = Arc::new(MemoryStore::new());
        let engine = if durable {
            open(&store, durable_config())
        } else {
            PolarisEngine::new(Arc::new(Arc::clone(&store)), pool(), durable_config())
        };
        assert_eq!(engine.commit_log_writer().is_some(), durable);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        sto::run_once(&engine).unwrap();
        let logged = store.list(WAL_PREFIX).unwrap().len();
        let backups = store.list("system/").unwrap().len();
        if durable {
            assert!(logged > 0, "open with the flag logs");
            assert_eq!(backups, 0, "the log is the backup");
        } else {
            assert_eq!(logged, 0, "new never logs");
            assert_eq!(backups, 1, "so the tick backs the catalog up");
        }
    }
}

#[test]
fn show_engine_health_wal_line_has_the_replayed_watermark() {
    let store = Arc::new(MemoryStore::new());
    {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    let engine = open(&store, durable_config());
    let clock = engine.catalog().now().0;
    let mut s = engine.session();
    let health = s.query("SHOW ENGINE HEALTH").unwrap();
    let wal: Vec<String> = (0..health.num_rows())
        .map(|i| health.row(i)[0].to_string())
        .filter(|line| line.starts_with("wal: "))
        .collect();
    assert_eq!(wal.len(), 1, "one wal line: {wal:?}");
    assert!(
        wal[0].contains("enabled=true") && wal[0].ends_with(&format!("replay_watermark={clock}")),
        "wal section missing the watermark: {}",
        wal[0]
    );
}

/// Each remaining step of recovery — checkpoint fold, log fold, import —
/// is timed, in the report and in `polaris.wal`, and the steps fit inside
/// the wall time of the whole.
#[test]
fn recovery_steps_are_timed_within_its_wall_time() {
    let store = Arc::new(MemoryStore::new());
    let config = EngineConfig {
        log_checkpoint_every: 4,
        ..durable_config()
    };
    {
        let engine = open(&store, config);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..10 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let engine = open(&store, config);
    let report = engine.recovery_report().unwrap();
    assert!(
        report.checkpoint_clock > 0 && report.replayed_commits > 0,
        "{report:?}"
    );
    let steps = [
        report.checkpoint_fold_ns,
        report.log_fold_ns,
        report.import_ns,
    ];
    assert!(steps.iter().all(|ns| *ns > 0), "{report:?}");
    assert!(steps.iter().sum::<u64>() <= report.wall_ns, "{report:?}");
    let wal = engine
        .session()
        .query("SELECT checkpoint_fold_ns, log_fold_ns, import_ns, recovery_ns FROM polaris.wal")
        .unwrap();
    let shown: Vec<Value> = wal.row(0);
    let ns = |v: u64| Value::Int(v as i64);
    let [a, b, c] = steps.map(ns);
    assert_eq!(shown, vec![a, b, c, ns(report.wall_ns)]);
}

#[test]
fn garbage_in_checkpoint_falls_back_to_older_generation() {
    let store = Arc::new(MemoryStore::new());
    let config = EngineConfig {
        log_segment_bytes: 1,
        log_checkpoint_every: 2,
        ..durable_config()
    };
    {
        let engine = open(&store, config);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..6 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    // Corrupt the newest frame (crash mid-write of the generation).
    let ckpts = store.list(CHECKPOINT_PREFIX).unwrap();
    let newest = ckpts.last().expect("checkpoints exist").path.clone();
    let raw = store.get(&newest).unwrap();
    let all = frames(&raw);
    assert!(all.len() >= 2, "a base and at least one delta");
    let last = all.last().unwrap().clone();
    let mut garbled = raw.to_vec();
    garbled[last.start + 20] ^= 0x5a;
    store.put(&newest, garbled.into(), Stamp::SYSTEM).unwrap();
    let before_it = fold_checkpoint(&raw[..last.start]).unwrap().clock;

    let engine = open(&store, config);
    assert_eq!(count(&engine, "t"), 6, "older frame + log tail covers");
    // Fallback is by exactly one generation — the log above *that* frame is
    // what pruning keeps; garbage one frame further back would need segments
    // that are gone (the oracle below checks that case fails loudly).
    let report = engine.recovery_report().unwrap();
    assert_eq!(report.checkpoint_clock, before_it);
    assert!(report.checkpoint_clock > 0);
}

/// A process that dies between uploading a commit's manifest and
/// committing it leaves the manifest named by no `Manifests` row of the
/// catalog the restart rebuilds — from the log, or with the commit log off
/// from the last catalog backup, which the in-memory commit never reached.
/// The restart leaves it alone; the first GC sweep past the dead process's
/// transaction ids reclaims it, and keeps every manifest a row names.
#[test]
fn an_orphan_manifest_goes_with_the_first_sweep_past_its_transaction() {
    const BACKUP: &str = "system/backup.ckpt";
    for durable in [false, true] {
        let inner = Arc::new(MemoryStore::new());
        let chaos = Arc::new(SimStore::new(Arc::clone(&inner), LatencyModel::ZERO));
        let store = Arc::clone(&chaos) as Arc<dyn ObjectStore>;
        let dying = if durable {
            PolarisEngine::open(store, pool(), durable_config()).unwrap()
        } else {
            PolarisEngine::new(store, pool(), EngineConfig::for_testing())
        };
        let mut s = dying.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        if !durable {
            dying.backup_catalog(BACKUP).unwrap();
        }
        // Die in the sequencer: the manifest is uploaded, the log append
        // (if any) and every cleanup fail.
        let switch = chaos.kill_switch();
        dying
            .catalog()
            .set_commit_probe(Some(Arc::new(move |point: &str| {
                if point == "commit.sequencer" {
                    switch.store(true, Ordering::SeqCst);
                }
            })));
        let _ = s.execute("INSERT INTO t VALUES (2)");
        assert!(chaos.killed());
        let next_txn = dying.catalog().min_active_txn_id().0;
        drop((s, dying));

        let engine = if durable {
            open(&inner, durable_config())
        } else {
            let store = Arc::new(Arc::clone(&inner)) as Arc<dyn ObjectStore>;
            PolarisEngine::restore(store, pool(), EngineConfig::for_testing(), BACKUP).unwrap()
        };
        let orphans = unreferenced_manifests(&engine);
        assert_eq!(orphans.len(), 1, "durable={durable}: {orphans:?}");
        let gc = gc_past(&engine, next_txn);
        assert!(gc.deleted >= 1, "durable={durable}: {gc:?}");
        assert_eq!(unreferenced_manifests(&engine), Vec::<String>::new());
        assert_eq!(count(&engine, "t"), 1, "durable={durable}");
    }
}

#[test]
fn a_torn_tail_does_not_orphan_what_is_logged_after_it() {
    let store = Arc::new(MemoryStore::new());
    {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..4 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let segs = store.list(WAL_PREFIX).unwrap();
    let last = segs.last().expect("wal segments exist").path.clone();
    let raw = store.get(&last).unwrap();
    store
        .put(&last, raw.slice(0..raw.len() - 7), Stamp::SYSTEM)
        .unwrap();
    {
        // Recovers the prefix and logs on — into a new segment that starts
        // exactly where the tear left the clock.
        let engine = open(&store, durable_config());
        assert_eq!(count(&engine, "t"), 3);
        let mut s = engine.session();
        s.execute("INSERT INTO t VALUES (99)").unwrap();
    }
    // The torn segment is still torn; what follows it is not stale.
    let engine = open(&store, durable_config());
    let report = engine.recovery_report().unwrap();
    assert_eq!(report.segments_dropped, 0, "{report:?}");
    assert_eq!(count(&engine, "t"), 4, "the acknowledged insert survives");
}

#[test]
fn random_bytes_as_the_checkpoint_never_panic() {
    let store = Arc::new(MemoryStore::new());
    let config = EngineConfig {
        log_checkpoint_every: 2,
        ..durable_config()
    };
    let ckpt = {
        let engine = open(&store, config);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        let ckpts = store.list(CHECKPOINT_PREFIX).unwrap();
        ckpts.last().expect("one generation ran").path.clone()
    };
    let whole = store.get(&ckpt).unwrap();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for round in 0..64 {
        // Pure noise, noise behind a valid frame header, and a valid blob
        // with bytes flipped.
        let mut bytes: Vec<u8> = match round % 3 {
            0 => (0..next() % 200).map(|_| next() as u8).collect(),
            1 => whole[..12]
                .iter()
                .copied()
                .chain((0..next() % 200).map(|_| next() as u8))
                .collect(),
            _ => whole.to_vec(),
        };
        if round % 3 == 2 {
            for _ in 0..3 {
                let at = next() as usize % bytes.len();
                bytes[at] = next() as u8;
            }
        }
        store.put(&ckpt, bytes.into(), Stamp::SYSTEM).unwrap();
        // Nothing was pruned yet (the first generation covers nothing), so
        // the log alone must do; an error would be acceptable, a panic or a
        // shorter table is not.
        let dyn_store: Arc<dyn ObjectStore> = Arc::new(Arc::clone(&store));
        if let Ok(engine) = PolarisEngine::open(dyn_store, pool(), config) {
            assert_eq!(count(&engine, "t"), 1, "round {round}");
        }
    }
}

/// A generation reads what is pending, goes to the store, and only then
/// forgets what it wrote. A commit logged in between — it can be: the round
/// trips hold no lock the log needs — is in neither that frame nor, if the
/// forgetting is careless, the next. Each round parks a generation inside
/// its block-list commit, commits a row meanwhile, and checks the frame
/// after it: a base first, then deltas.
#[test]
fn a_commit_logged_during_a_generation_reaches_the_next_frame() {
    let inner = Arc::new(MemoryStore::new());
    let armed = Arc::new(AtomicBool::new(false));
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let gate = {
        let armed = Arc::clone(&armed);
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        move |r: Request<'_>| {
            let at_gate = r.op == "commit_block_list" && r.path.starts_with(CHECKPOINT_PREFIX);
            if at_gate && armed.swap(false, Ordering::SeqCst) {
                entered_tx.lock().unwrap().send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
        }
    };
    let store: Arc<dyn ObjectStore> =
        Arc::new(SimStore::new(Arc::clone(&inner), LatencyModel::ZERO).with_tap(gate));
    let config = EngineConfig {
        log_checkpoint_every: 1_000, // forced generations only
        ..durable_config()
    };
    let engine = PolarisEngine::open(store, pool(), config).unwrap();
    let writer = engine.commit_log_writer().unwrap();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT)").unwrap();
    for round in 0..4 {
        s.execute(&format!("INSERT INTO t VALUES ({round})"))
            .unwrap();
        armed.store(true, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let generation = scope.spawn(|| writer.checkpoint(engine.catalog()).unwrap());
            entered_rx.recv().unwrap();
            let meanwhile = scope.spawn(|| {
                let sql = format!("INSERT INTO t VALUES ({})", 100 + round);
                engine.session().execute(&sql).unwrap();
            });
            let deadline = Instant::now() + Duration::from_secs(20);
            while !meanwhile.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let committed = meanwhile.is_finished();
            release_tx.send(()).unwrap();
            assert!(committed, "a commit waited out a generation's round trip");
            assert!(generation.join().unwrap() < engine.catalog().now().0);
        });
        let at = writer.checkpoint(engine.catalog()).unwrap();
        assert_eq!(at, engine.catalog().now().0);
        let (_, newest) = checkpoint_blobs(&inner).pop().unwrap();
        assert_eq!(
            fold_checkpoint(&newest).unwrap(),
            engine.catalog().export().unwrap(),
            "round {round}"
        );
    }
}

// ---------------------------------------------------------------------
// The recoverability oracle
// ---------------------------------------------------------------------

/// Byte ranges of the frames of a checkpoint blob, read off the frame
/// headers alone (magic, then payload length, little-endian, at bytes 4..8).
fn frames(blob: &[u8]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut at = 0;
    while at + 12 <= blob.len() {
        let len = u32::from_le_bytes(blob[at + 4..at + 8].try_into().unwrap()) as usize;
        out.push(at..at + 12 + len);
        at += 12 + len;
    }
    assert_eq!(
        at,
        blob.len(),
        "a live checkpoint blob ends at a frame boundary"
    );
    out
}

/// The reference: the catalog image as of `clock`, read row by row through
/// a time-travel transaction — what `Catalog::export` would have returned
/// had it run when the clock stood there.
fn export_at(catalog: &Catalog, clock: u64) -> CatalogImage {
    let mut txn = catalog.begin_at(Timestamp(clock));
    let mut image = CatalogImage {
        clock,
        ..CatalogImage::default()
    };
    for meta in catalog.list_tables(&mut txn).unwrap() {
        let id = meta.id;
        let bound = catalog.table_by_name(&mut txn, &meta.name).unwrap().id;
        image.rows.extend(
            [
                (
                    CatalogKey::TableName(meta.name.clone()),
                    CatalogValue::Id(bound),
                ),
                (CatalogKey::Table(id), CatalogValue::Meta(Box::new(meta))),
            ]
            .into_iter()
            .chain(
                (catalog.visible_manifests(&mut txn, id).unwrap().into_iter()).map(|(seq, row)| {
                    (
                        CatalogKey::Manifest(id, seq),
                        CatalogValue::ManifestRow(row),
                    )
                }),
            )
            .chain(
                (catalog.checkpoints(&mut txn, id).unwrap().into_iter()).map(|(seq, row)| {
                    (
                        CatalogKey::Checkpoint(id, seq),
                        CatalogValue::CheckpointRow(row),
                    )
                }),
            ),
        );
    }
    catalog.abort(&mut txn);
    image
}

/// Every committed blob of `store`, in a store of its own.
fn copy_of(store: &MemoryStore) -> Arc<MemoryStore> {
    let copy = Arc::new(MemoryStore::new());
    for meta in store.list("").unwrap() {
        copy.put(&meta.path, store.get(&meta.path).unwrap(), meta.stamp)
            .unwrap();
    }
    copy
}

fn oracle_config() -> EngineConfig {
    EngineConfig {
        commit_log_enabled: true,
        log_segment_bytes: 512,
        log_checkpoint_every: 3,
        ..EngineConfig::for_testing()
    }
}

fn small_pool() -> Arc<ComputePool> {
    let pool = Arc::new(ComputePool::with_topology(1, 1, 1));
    pool.add_nodes(polaris_dcp::WorkloadClass::System, 1, 1);
    pool
}

/// `open` over `store` as a crashed process's successor would, for its
/// catalog alone.
fn recovered(store: &Arc<MemoryStore>) -> polaris_core::PolarisResult<Arc<PolarisEngine>> {
    let dyn_store: Arc<dyn ObjectStore> = Arc::new(Arc::clone(store));
    PolarisEngine::open(dyn_store, small_pool(), oracle_config())
}

/// The checkpoint blobs of `store`, oldest first, each with its bytes.
fn checkpoint_blobs(store: &MemoryStore) -> Vec<(BlobPath, Bytes)> {
    let listed = store.list(CHECKPOINT_PREFIX).unwrap();
    listed
        .into_iter()
        .map(|meta| (meta.path.clone(), store.get(&meta.path).unwrap()))
        .collect()
}

/// Hold the durable state of `store` to the live `engine`, as it stands
/// after a generation:
///
/// 1. the newest blob's frames fold to the catalog as of the newest frame's
///    clock, table for table and row for row;
/// 2. with the newest frame lost — at its boundary or anywhere inside it —
///    `open` falls back exactly one frame and the log tail brings back the
///    live catalog, whole;
/// 3. with one more frame lost, `open` either still gets there or fails: it
///    never opens a shorter history.
fn check_generation(
    store: &Arc<MemoryStore>,
    engine: &Arc<PolarisEngine>,
    every_byte: bool,
) -> Result<(), TestCaseError> {
    let live = engine.catalog().export().unwrap();
    let blobs = checkpoint_blobs(store);
    let (_, newest) = blobs.last().expect("a generation ran");
    let folded = fold_checkpoint(newest).expect("the newest blob is whole");
    prop_assert_eq!(&folded, &export_at(engine.catalog(), folded.clock));

    // All frames of all blobs, oldest first; `lose(n, keep)` rewrites a copy
    // so that the newest `n` are gone but for `keep` bytes of the oldest of
    // them (a torn write leaves the blob, shortened).
    let all: Vec<(usize, Range<usize>)> = blobs
        .iter()
        .enumerate()
        .flat_map(|(b, (_, raw))| frames(raw).into_iter().map(move |f| (b, f)))
        .collect();
    let copy = copy_of(store);
    let lose = |n: usize, keep: usize| {
        let (torn_blob, torn) = &all[all.len() - n];
        for (b, (path, raw)) in blobs.iter().enumerate().skip(*torn_blob) {
            let left = if b == *torn_blob {
                torn.start + keep
            } else {
                0
            };
            copy.put(path, raw.slice(0..left), Stamp::SYSTEM).unwrap();
        }
        // What recovery can still fold: the frame before the lost ones.
        all.len()
            .checked_sub(n + 1)
            .map(|i| {
                let (b, f) = &all[i];
                fold_checkpoint(&blobs[*b].1[..f.end]).unwrap().clock
            })
            .unwrap_or(0)
    };

    let last = all.last().unwrap().1.clone();
    let cuts: Vec<usize> = if every_byte {
        (0..last.len()).collect()
    } else {
        vec![0, 1, 12, last.len() / 2, last.len() - 1]
    };
    for keep in cuts {
        let fallback = lose(1, keep);
        let engine = recovered(&copy)
            .map_err(|e| TestCaseError::fail(format!("newest frame cut to {keep} bytes: {e}")))?;
        let report = engine.recovery_report().unwrap();
        prop_assert_eq!(report.checkpoint_clock, fallback, "cut to {} bytes", keep);
        prop_assert_eq!(
            &engine.catalog().export().unwrap(),
            &live,
            "cut to {}",
            keep
        );
    }
    if all.len() >= 2 {
        lose(2, 0);
        if let Ok(engine) = recovered(&copy) {
            prop_assert_eq!(
                &engine.catalog().export().unwrap(),
                &live,
                "two frames lost"
            );
        }
    }
    // And untouched, of course.
    let engine = recovered(&copy_of(store)).unwrap();
    prop_assert_eq!(&engine.catalog().export().unwrap(), &live);
    prop_assert_eq!(
        engine.recovery_report().unwrap().checkpoint_clock,
        folded.clock
    );
    Ok(())
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        table: u8,
    },
    /// One transaction writing two tables: one commit, two manifest rows.
    MultiTable {
        a: u8,
        b: u8,
    },
    Create,
    Drop {
        table: u8,
    },
    Clone {
        source: u8,
    },
    /// Publishes, takes lst checkpoints (`Checkpoints` rows), compacts.
    StoTick,
    ForceGeneration,
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..8).prop_map(|table| Op::Insert { table }),
        2 => (0u8..8, 0u8..8).prop_map(|(a, b)| Op::MultiTable { a, b }),
        1 => Just(Op::Create),
        1 => (0u8..8).prop_map(|table| Op::Drop { table }),
        1 => (0u8..8).prop_map(|source| Op::Clone { source }),
        1 => Just(Op::StoTick),
        1 => Just(Op::ForceGeneration),
        1 => Just(Op::Reopen),
    ]
}

struct World {
    store: Arc<MemoryStore>,
    engine: Arc<PolarisEngine>,
    tables: Vec<String>,
    next_name: usize,
    next_value: i64,
    /// The newest checkpoint blob as last checked: a change is a generation.
    seen: Option<(BlobPath, usize)>,
    generations: usize,
}

impl World {
    fn new() -> World {
        let store = Arc::new(MemoryStore::new());
        let engine = recovered(&store).unwrap();
        let mut world = World {
            store,
            engine,
            tables: Vec::new(),
            next_name: 0,
            next_value: 0,
            seen: None,
            generations: 0,
        };
        world.create();
        world
    }

    fn create(&mut self) {
        let name = format!("t{}", self.next_name);
        self.next_name += 1;
        let mut s = self.engine.session();
        s.execute(&format!("CREATE TABLE {name} (id BIGINT)"))
            .unwrap();
        self.tables.push(name);
    }

    fn table(&self, pick: u8) -> &str {
        &self.tables[pick as usize % self.tables.len()]
    }

    fn insert_sql(&mut self, pick: u8) -> String {
        self.next_value += 1;
        format!(
            "INSERT INTO {} VALUES ({})",
            self.table(pick),
            self.next_value
        )
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert { table } => {
                let sql = self.insert_sql(*table);
                self.engine.session().execute(&sql).unwrap();
            }
            Op::MultiTable { a, b } => {
                let (first, second) = (self.insert_sql(*a), self.insert_sql(*b));
                let mut s = self.engine.session();
                s.execute("BEGIN").unwrap();
                s.execute(&first).unwrap();
                s.execute(&second).unwrap();
                s.execute("COMMIT").unwrap();
            }
            Op::Create => self.create(),
            Op::Drop { table } => {
                if self.tables.len() > 1 {
                    let name = self.tables.remove(*table as usize % self.tables.len());
                    self.engine.drop_table(&name).unwrap();
                }
            }
            Op::Clone { source } => {
                let name = format!("t{}", self.next_name);
                self.next_name += 1;
                lineage::clone_table(&self.engine, self.table(*source), &name, None).unwrap();
                self.tables.push(name);
            }
            Op::StoTick => {
                sto::run_once(&self.engine).unwrap();
            }
            Op::ForceGeneration => {
                let writer = self.engine.commit_log_writer().unwrap();
                writer.checkpoint(self.engine.catalog()).unwrap();
            }
            Op::Reopen => {
                let before = self.engine.catalog().export().unwrap();
                self.engine = recovered(&self.store).unwrap();
                assert_eq!(self.engine.catalog().export().unwrap(), before);
            }
        }
    }

    /// Run the checks if a generation happened since the last look.
    fn check(&mut self, every_byte: bool) -> Result<(), TestCaseError> {
        let newest = checkpoint_blobs(&self.store)
            .pop()
            .map(|(path, raw)| (path, raw.len()));
        if newest == self.seen {
            return Ok(());
        }
        self.seen = newest;
        self.generations += 1;
        check_generation(&self.store, &self.engine, every_byte)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, max_shrink_iters: 32, ..Default::default() })]

    #[test]
    fn a_checkpoint_is_the_catalog_and_its_newest_frame_is_expendable(
        ops in proptest::collection::vec(op_strategy(), 8..40)
    ) {
        let mut world = World::new();
        for op in &ops {
            world.apply(op);
            world.check(false)?;
        }
        // Whatever the mix, end on a generation so every case checks one.
        world.apply(&Op::Insert { table: 0 });
        world.apply(&Op::ForceGeneration);
        world.check(false)?;
        prop_assert!(world.generations >= 1);
    }
}

/// The same checks with the newest frame cut at *every* byte, over one fixed
/// history that crosses a base, deltas with drops and clones in them, a
/// re-base and a reopen.
#[test]
fn losing_the_newest_frame_at_any_byte_recovers_the_live_catalog() {
    let mut world = World::new();
    let mut script = vec![Op::Insert { table: 0 }, Op::Create, Op::Insert { table: 1 }];
    script.extend([
        Op::MultiTable { a: 0, b: 1 },
        Op::Clone { source: 0 },
        Op::Insert { table: 2 },
        Op::Drop { table: 1 },
        Op::StoTick,
        Op::Insert { table: 0 },
        Op::Reopen,
    ]);
    script.extend((0..14).map(|i| Op::Insert { table: i % 2 }));
    script.push(Op::ForceGeneration);
    let mut bases = std::collections::BTreeSet::new();
    for op in &script {
        world.apply(op);
        world.check(true).unwrap();
        bases.extend(checkpoint_blobs(&world.store).into_iter().map(|(p, _)| p));
    }
    assert!(world.generations >= 6, "{} generations", world.generations);
    assert!(
        bases.len() >= 3,
        "first base, base after reopen, re-base: {bases:?}"
    );
}
