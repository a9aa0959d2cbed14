//! The STO tick's cost, as counts from `metrics_snapshot()` rather than a
//! timer: a tick reads the manifests committed since the previous tick — not
//! the table's history — a tick that follows no commit writes nothing, and
//! the Delta log gains one version per table per tick, across a reopen too.

use polaris_core::{sto, EngineConfig, PolarisEngine};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{LatencyModel, MemoryStore, ObjectStore, Request, SimStore};
use std::sync::{Arc, Mutex};

/// Counters a tick moves, sampled before and after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    reads: u64,
    writes: u64,
    folded: u64,
}

fn tick(engine: &Arc<PolarisEngine>) -> (sto::StoTickReport, Cost) {
    let sample = || {
        let m = engine.metrics_snapshot();
        Cost {
            reads: m.counter("store.reads"),
            writes: m.counter("store.puts")
                + m.counter("store.staged_blocks")
                + m.counter("store.commits"),
            folded: m.counter("sto.gc_folded_manifests"),
        }
    };
    let before = sample();
    let report = sto::run_once(engine).unwrap();
    let after = sample();
    let cost = Cost {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        folded: after.folded - before.folded,
    };
    (report, cost)
}

#[test]
fn a_tick_pays_for_the_new_manifests_not_the_history() {
    const N: u64 = 8;
    // No file is ever "small", so compaction finds no victims and the
    // tick's reads are publish + checkpoint + GC fold alone.
    let config = EngineConfig {
        compact_min_rows: 0,
        ..EngineConfig::for_testing()
    };
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let engine = PolarisEngine::new(Arc::new(MemoryStore::new()), pool, config);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();

    let mut at_depth = Vec::new();
    for round in 1..=16 {
        for k in 0..N {
            s.execute(&format!("INSERT INTO t VALUES ({})", round * N + k))
                .unwrap();
        }
        let (report, cost) = tick(&engine);
        assert_eq!(report.published as u64, N, "round {round}");
        assert_eq!(report.compactions, 0, "round {round}");
        assert_eq!(cost.folded, N, "round {round}: the fold is the delta");
        if [1, 4, 16].contains(&round) {
            at_depth.push(cost);
        }
    }
    // History depth N, 4N, 16N: the same N manifests, the same reads — one
    // per manifest for the GC fold, and the snapshot cache's own catch-up,
    // which does not grow either. The publisher reads nothing: its version
    // is the change between two cached snapshots.
    assert_eq!(at_depth[0], at_depth[1], "depth N against 4N");
    assert_eq!(at_depth[0], at_depth[2], "depth N against 16N");
    assert!(
        (N..=N + 2).contains(&at_depth[0].reads),
        "{:?}",
        at_depth[0]
    );

    // Once a tick has found nothing to publish, checkpoint or compact, the
    // clock stands where its backup left it: the next tick reads no
    // manifest and writes no blob — not even the catalog image.
    let mut idle = false;
    for _ in 0..3 {
        let (report, cost) = tick(&engine);
        if idle {
            let nothing = Cost {
                reads: 0,
                writes: 0,
                folded: 0,
            };
            assert_eq!(cost, nothing, "an idle tick costs a listing");
            return;
        }
        idle = report == sto::StoTickReport::default();
    }
    panic!("the orchestrator never went idle");
}

/// Registering a metric moves the registry epoch, and the harvester then
/// re-indexes every metric inside whatever window is being measured: a warm
/// engine's first STO tick and a `polaris.wal` scan (on an engine that logs
/// nothing) register nothing.
#[test]
fn a_first_tick_and_a_wal_scan_register_no_metric() {
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let engine = PolarisEngine::new(
        Arc::new(MemoryStore::new()),
        pool,
        EngineConfig::for_testing(),
    );
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    assert_eq!(s.query("SELECT k FROM t").unwrap().num_rows(), 1);
    let epoch = engine.metrics().epoch();
    sto::run_once(&engine).unwrap();
    let wal = s.query("SELECT appends FROM polaris.wal").unwrap();
    assert_eq!(wal.row(0)[0].as_int(), Some(0));
    assert_eq!(engine.metrics().epoch(), epoch);
}

/// The sequence a `_delta_log/` blob is named after, and whether it is a
/// version (not a checkpoint).
fn log_entry(path: &str) -> Option<(u64, bool)> {
    let name = path.split("/_delta_log/").nth(1)?;
    let (seq, suffix) = name.split_once('.')?;
    Some((seq.parse().ok()?, suffix == "json"))
}

/// The publish watermark lives in the log, not in the engine: the first
/// tick after a reopen writes one version for the table that committed
/// since, nothing for the table that did not, and re-publishes no sequence
/// at or below the watermark. `open` itself lists no `_delta_log/`.
#[test]
fn the_first_tick_after_a_reopen_continues_the_log() {
    let requests = Arc::new(Mutex::new(Vec::<(&'static str, String)>::new()));
    let tap = {
        let requests = Arc::clone(&requests);
        move |r: Request<'_>| {
            if matches!(r.op, "put" | "list") {
                requests.lock().unwrap().push((r.op, r.path.to_owned()));
            }
        }
    };
    let store = Arc::new(SimStore::new(MemoryStore::new(), LatencyModel::ZERO).with_tap(tap));
    let open = || {
        let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
        pool.add_nodes(WorkloadClass::System, 1, 2);
        let config = EngineConfig {
            commit_log_enabled: true,
            ..EngineConfig::for_testing()
        };
        let store: Arc<dyn ObjectStore> = Arc::clone(&store) as _;
        PolarisEngine::open(store, pool, config).unwrap()
    };
    let insert = |engine: &Arc<PolarisEngine>, table: &str, rows: std::ops::Range<i64>| {
        let mut s = engine.session();
        for k in rows {
            s.execute(&format!("INSERT INTO {table} VALUES ({k})"))
                .unwrap();
        }
    };
    let newest_version = |table: &str| {
        let log = store.list(&format!("lake/{table}/_delta_log/")).unwrap();
        log.iter()
            .filter_map(|blob| log_entry(blob.path.as_str()))
            .filter(|(_, version)| *version)
            .map(|(seq, _)| seq)
            .max()
            .unwrap()
    };

    let engine = open();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    s.execute("CREATE TABLE u (k BIGINT)").unwrap();
    drop(s);
    for round in 0..2 {
        insert(&engine, "t", round * 10..round * 10 + 6);
        insert(&engine, "u", round * 10..round * 10 + 6);
        sto::run_once(&engine).unwrap();
    }
    let watermark = [newest_version("t"), newest_version("u")];
    drop(engine);

    requests.lock().unwrap().clear();
    let engine = open();
    let listed_by_open = std::mem::take(&mut *requests.lock().unwrap());
    assert!(
        !listed_by_open
            .iter()
            .any(|(_, path)| path.contains("_delta_log")),
        "open reads no Delta log: {listed_by_open:?}"
    );
    insert(&engine, "t", 100..103);
    requests.lock().unwrap().clear();
    let report = sto::run_once(&engine).unwrap();
    assert_eq!(report.published, 3 + report.compactions, "{report:?}");

    let puts: Vec<String> = requests
        .lock()
        .unwrap()
        .iter()
        .filter(|(op, _)| *op == "put")
        .map(|(_, path)| path.clone())
        .collect();
    for (table, watermark) in ["t", "u"].iter().zip(watermark) {
        let written: Vec<(u64, bool)> = puts
            .iter()
            .filter(|path| path.starts_with(&format!("lake/{table}/_delta_log/")))
            .filter_map(|path| log_entry(path))
            .collect();
        let versions = written.iter().filter(|(_, version)| *version).count();
        let expected = if *table == "t" { 1 } else { 0 };
        assert_eq!(versions, expected, "{table}: {written:?}");
        assert!(
            written.iter().all(|(seq, _)| *seq > watermark),
            "{table} re-published at or below {watermark}: {written:?}"
        );
    }
}
