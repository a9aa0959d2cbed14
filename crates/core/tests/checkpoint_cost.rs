//! What durability writes, as counts rather than timers: a checkpoint
//! generation costs the rows committed since the previous one — not the
//! table's history — the blob's whole life costs a small multiple of one
//! image, and neither the STO tick nor a read adds a byte to it.

mod common;

use common::{Request, TapStore};
use polaris_core::recovery::{encode_base_frame, CHECKPOINT_PREFIX};
use polaris_core::{sto, EngineConfig, PolarisEngine};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{MemoryStore, ObjectStore};
use std::sync::{Arc, Mutex};

/// Requests that write, or that a writer should not need: `(op, path, bytes)`.
type Seen = Arc<Mutex<Vec<(&'static str, String, u64)>>>;

/// A durable engine checkpointing every `every` batches, and what its store
/// was asked to do.
fn durable_engine(every: u64) -> (Arc<PolarisEngine>, Seen) {
    let seen: Seen = Arc::default();
    let tap = {
        let seen = Arc::clone(&seen);
        move |r: Request<'_>| {
            if !matches!(r.op, "get" | "get_range" | "head") {
                seen.lock()
                    .unwrap()
                    .push((r.op, r.path.to_owned(), r.bytes));
            }
        }
    };
    let store: Arc<dyn ObjectStore> = Arc::new(TapStore::new(Arc::new(MemoryStore::new()), tap));
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let config = EngineConfig {
        commit_log_enabled: true,
        log_checkpoint_every: every,
        // No file is ever "small": the tick below compacts nothing.
        compact_min_rows: 0,
        ..EngineConfig::for_testing()
    };
    (PolarisEngine::open(store, pool, config).unwrap(), seen)
}

/// One checkpoint generation as the store saw it.
#[derive(Debug, Clone, Copy)]
struct Generation {
    /// Rows of `t` when it ran.
    depth: u64,
    /// It started a blob (a base) rather than appending to the open one.
    base: bool,
    bytes: u64,
}

/// Insert `inserts` rows one commit at a time; the generations that
/// triggered, each held to the request shape of one: a staged block and a
/// block-list commit — no image `put`, nothing listed.
fn trickle(engine: &Arc<PolarisEngine>, seen: &Seen, inserts: u64) -> Vec<Generation> {
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    seen.lock().unwrap().clear();
    let mut generations = Vec::new();
    let mut open_blob = String::new();
    for depth in 1..=inserts {
        s.execute(&format!("INSERT INTO t VALUES ({depth})"))
            .unwrap();
        for (op, path, bytes) in seen.lock().unwrap().drain(..) {
            assert!(
                !(op == "list" && path.starts_with("sys/")),
                "a generation lists nothing, at depth {depth}: list({path})"
            );
            if !path.starts_with(CHECKPOINT_PREFIX) {
                continue;
            }
            match op {
                "stage_block" => {
                    let base = path != open_blob;
                    generations.push(Generation { depth, base, bytes });
                    open_blob = path;
                }
                "commit_block_list" => assert_eq!(path, open_blob),
                "delete" => assert_ne!(path, open_blob, "the superseded blob goes"),
                _ => panic!("{op}({path}) at depth {depth}"),
            }
        }
    }
    generations
}

#[test]
fn a_generation_pays_for_its_rows_not_for_the_history() {
    const EVERY: u64 = 4;
    const N: u64 = 32;
    let (engine, seen) = durable_engine(EVERY);
    let generations = trickle(&engine, &seen, 16 * N + 4 * EVERY);
    // The first delta generation at or after each depth.
    let [shallow, mid, deep] = [N, 4 * N, 16 * N].map(|depth| {
        let delta = generations.iter().find(|g| g.depth >= depth && !g.base);
        delta.expect("generations run every few commits").bytes
    });
    // A delta carries EVERY rows; sequence and transaction ids gain a digit
    // or two over the run, whole rows they do not.
    let row = shallow / EVERY;
    assert!(
        mid.abs_diff(shallow) < row && deep.abs_diff(shallow) < row,
        "depth N {shallow} B, 4N {mid} B, 16N {deep} B — a row is {row} B"
    );
}

#[test]
fn a_blob_s_whole_life_costs_a_few_images() {
    const M: u64 = 1024;
    let (engine, seen) = durable_engine(32);
    let generations = trickle(&engine, &seen, M);
    // Bases double, deltas add up to the last base at most: everything ever
    // written under the prefix is a small multiple of what it stands for —
    // where a full image per generation is M/64 of them.
    let total: u64 = generations.iter().map(|g| g.bytes).sum();
    let bases = generations.iter().filter(|g| g.base).count();
    let mut image = Vec::new();
    encode_base_frame(engine.catalog().export().unwrap(), &mut image).unwrap();
    assert!(
        total <= 3 * image.len() as u64,
        "{total} checkpoint bytes ({bases} bases) for an image of {}",
        image.len()
    );
    assert!((3..=12).contains(&bases), "{bases} bases in {M} commits");
}

#[test]
fn the_tick_writes_no_second_image_and_a_read_writes_nothing() {
    let (engine, seen) = durable_engine(4);
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    for k in 0..8 {
        s.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
    }
    let writes = |seen: &Seen| -> Vec<(&'static str, String, u64)> {
        let mut seen = seen.lock().unwrap();
        seen.drain(..).filter(|(op, ..)| *op != "list").collect()
    };
    writes(&seen);

    // The checkpoint blob plus the log is the §6.3 backup of a durable
    // engine; its tick publishes and checkpoints tables, nothing more.
    sto::run_once(&engine).unwrap();
    let tick = writes(&seen);
    assert!(!tick.is_empty(), "the tick published the commits");
    let backup: Vec<_> = tick.iter().filter(|w| w.1.starts_with("system/")).collect();
    assert!(backup.is_empty(), "{backup:?}");

    // A read-only statement takes no place in the commit order: no
    // timestamp, no log frame, no store request that writes.
    let clock = engine.catalog().now();
    let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.num_rows(), 1);
    s.execute("BEGIN").unwrap();
    s.query("SELECT k FROM t WHERE k = 1").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(writes(&seen), vec![], "a SELECT wrote");
    assert_eq!(engine.catalog().now(), clock);
}
