//! Kill-anywhere chaos harness for the durable commit log.
//!
//! Each scenario simulates one process lifetime that dies at a chosen
//! point of the commit pipeline — statement block staging, manifest
//! upload, validation, the sequencer section, the WAL append (stage and
//! publish separately), install, publish, checkpoint generation (stage and
//! publish separately) — then reopens
//! the engine over the surviving durable state and checks the recovery
//! contract:
//!
//! * **committed stays committed** — every value whose commit was
//!   acknowledged (the statement returned `Ok`) is present after reopen;
//! * **aborted leaves no trace** — a commit that failed *before* its WAL
//!   append published is absent after reopen (after the append, an
//!   unacknowledged commit is durable and may legitimately resurface —
//!   standard WAL semantics);
//! * **dense clock** — replay never hits a gap (`torn_records` stays 0
//!   except at a genuine tear) and a reopened engine commits at
//!   `clock + 1`;
//! * **zero orphaned staged manifests** — after recovery every
//!   `_log/txn-*` manifest blob is referenced by a `Manifests` row;
//! * **double-reopen idempotence** — two recoveries over the same store
//!   export byte-identical catalog images.
//!
//! Crashes are simulated by freezing the store (`SimStore`): from the
//! kill instant every storage operation fails, including the dying
//! engine's own cleanup — exactly what `kill -9` leaves behind. Commit
//! failpoint probes pull the same kill switch for the points between
//! storage operations.
//!
//! A `harness = false` test target: plain `cargo test` runs the bounded
//! deterministic matrix (every kill site × two fixed seeds); `cargo test
//! --test kill_matrix -- --soak N` adds `N` randomized lifetimes and
//! `--seed S` pins the base seed (`scripts/chaos.sh`).

use polaris::core::{EngineConfig, PolarisEngine, Value};
use polaris::dcp::{ComputePool, WorkloadClass};
use polaris::store::{LatencyModel, MemoryStore, ObjectStore, SimStore};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a lifetime is killed.
#[derive(Debug, Clone)]
enum KillSite {
    /// Freeze at the `nth` matching storage operation.
    Store {
        op: &'static str,
        path: &'static str,
        nth: u64,
    },
    /// Freeze when the `nth` firing of a named commit failpoint probe is
    /// reached (`commit.validated`, `commit.sequencer`, `commit.logged`,
    /// `commit.installed`, `commit.published`).
    Probe { point: &'static str, nth: u64 },
}

/// Kill sites crossed with whether the WAL append had published by then:
/// `true` means the in-flight commit is durable and may resurface.
const SITES: &[(KillSite, bool)] = &[
    // Statement output: staging manifest blocks for a table under lake/.
    (
        KillSite::Store {
            op: "stage_block",
            path: "/_log/txn-",
            nth: 1,
        },
        false,
    ),
    // Manifest upload: the pipelined commit_block_list under lake/.
    (
        KillSite::Store {
            op: "commit_block_list",
            path: "/_log/txn-",
            nth: 1,
        },
        false,
    ),
    // WAL append, stage half: frame staged but never listed.
    (
        KillSite::Store {
            op: "stage_block",
            path: "sys/wal/",
            nth: 1,
        },
        false,
    ),
    // WAL append, publish half: commit list for the segment.
    (
        KillSite::Store {
            op: "commit_block_list",
            path: "sys/wal/",
            nth: 1,
        },
        false,
    ),
    // Checkpoint generation (needs log_checkpoint_every small; see
    // scenario): the frame staged but never listed, then the block-list
    // commit that would have published it.
    (
        KillSite::Store {
            op: "stage_block",
            path: "sys/checkpoint/",
            nth: 1,
        },
        false,
    ),
    (
        KillSite::Store {
            op: "commit_block_list",
            path: "sys/checkpoint/",
            nth: 1,
        },
        false,
    ),
    // Failpoints between storage operations.
    (
        KillSite::Probe {
            point: "commit.validated",
            nth: 1,
        },
        false,
    ),
    (
        KillSite::Probe {
            point: "commit.sequencer",
            nth: 1,
        },
        false,
    ),
    // From commit.logged on, the batch is durable.
    (
        KillSite::Probe {
            point: "commit.logged",
            nth: 1,
        },
        true,
    ),
    (
        KillSite::Probe {
            point: "commit.installed",
            nth: 1,
        },
        true,
    ),
    (
        KillSite::Probe {
            point: "commit.published",
            nth: 1,
        },
        true,
    ),
];

fn pool() -> Arc<ComputePool> {
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    pool
}

fn config() -> EngineConfig {
    EngineConfig {
        commit_log_enabled: true,
        log_segment_bytes: 4 * 1024,
        log_checkpoint_every: 5,
        ..EngineConfig::for_testing()
    }
}

fn open_plain(inner: &Arc<MemoryStore>) -> Arc<PolarisEngine> {
    PolarisEngine::open(
        Arc::new(Arc::clone(inner)) as Arc<dyn ObjectStore>,
        pool(),
        config(),
    )
    .expect("recovery over a quiesced store cannot fail")
}

fn visible_values(engine: &Arc<PolarisEngine>) -> HashSet<i64> {
    let mut s = engine.session();
    let rows = s.query("SELECT v FROM chaos_t").unwrap();
    (0..rows.num_rows())
        .map(|i| match rows.row(i)[0] {
            Value::Int(v) => v,
            ref other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

/// xorshift64* — deterministic, dependency-free seed expansion.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

struct Outcome {
    kill_fired: bool,
    acked_after_arm: Vec<i64>,
    refused: Vec<i64>,
}

/// One killed lifetime: arm the site, run inserts until the store dies
/// (or the workload budget runs out), and record which commits were
/// acknowledged vs refused after arming.
fn run_lifetime(
    inner: &Arc<MemoryStore>,
    site: &KillSite,
    seed: u64,
    next_value: &mut i64,
) -> Outcome {
    let chaos = Arc::new(SimStore::new(Arc::clone(inner), LatencyModel::ZERO));
    let engine = PolarisEngine::open(Arc::clone(&chaos) as Arc<dyn ObjectStore>, pool(), config())
        .expect("reopen before the kill is armed");
    match site {
        KillSite::Store { op, path, nth } => chaos.arm(op, path, *nth),
        KillSite::Probe { point, nth } => {
            let switch = chaos.kill_switch();
            let point = point.to_string();
            let left = AtomicU64::new(*nth);
            engine
                .catalog()
                .set_commit_probe(Some(Arc::new(move |p: &str| {
                    if p == point && left.fetch_sub(1, Ordering::SeqCst) == 1 {
                        switch.store(true, Ordering::SeqCst);
                    }
                })));
        }
    }
    let mut rng = seed;
    let mut out = Outcome {
        kill_fired: false,
        acked_after_arm: Vec::new(),
        refused: Vec::new(),
    };
    let mut s = engine.session();
    for _ in 0..16 {
        let v = *next_value;
        *next_value += 1;
        // Vary statement shape a little so different seeds die with
        // different amounts of staged state.
        let stmt = if next_rand(&mut rng).is_multiple_of(3) {
            format!(
                "INSERT INTO chaos_t VALUES ({v}, {v}), ({v}, {})",
                v + 1_000_000
            )
        } else {
            format!("INSERT INTO chaos_t VALUES ({v}, {v})")
        };
        match s.execute(&stmt) {
            Ok(_) => out.acked_after_arm.push(v),
            Err(_) => out.refused.push(v),
        }
        if chaos.killed() {
            out.kill_fired = true;
            break;
        }
    }
    out
}

/// Full scenario: seed a committed baseline, kill a lifetime at `site`,
/// recover, and check every invariant. Returns a human line.
fn run_scenario(label: &str, site: &KillSite, durable_after: bool, seed: u64) -> String {
    let inner = Arc::new(MemoryStore::new());
    let mut next_value: i64 = 0;

    // Lifetime 1: healthy baseline.
    let mut acked: HashSet<i64> = HashSet::new();
    {
        let engine = open_plain(&inner);
        let mut s = engine.session();
        s.execute("CREATE TABLE chaos_t (id BIGINT, v BIGINT)")
            .unwrap();
        for _ in 0..4 {
            let v = next_value;
            next_value += 1;
            s.execute(&format!("INSERT INTO chaos_t VALUES ({v}, {v})"))
                .unwrap();
            acked.insert(v);
        }
    }

    // Lifetime 2: dies at the armed site.
    let outcome = run_lifetime(&inner, site, seed, &mut next_value);
    acked.extend(outcome.acked_after_arm.iter().copied());

    // Lifetime 3 (+4): recover and verify.
    let engine = open_plain(&inner);
    let report = engine.recovery_report().expect("durability enabled");
    let visible = visible_values(&engine);

    // 1. Committed stays committed.
    for v in &acked {
        assert!(
            visible.contains(v),
            "[{label}] acknowledged value {v} lost after recovery; report {report:?}"
        );
    }
    // 2. Aborted leaves no trace (pre-durability kill sites only). A
    //    refused commit may resurface only when the kill hit at or after
    //    the WAL publish.
    if !durable_after {
        for v in &outcome.refused {
            assert!(
                !visible.contains(v),
                "[{label}] refused value {v} resurfaced after recovery; report {report:?}"
            );
        }
    }
    // 3. Dense clock: replay reached the recovered watermark without
    //    gaps, and new commits continue the dense run.
    let clock_before = engine.catalog().now().0;
    let mut s = engine.session();
    s.execute(&format!(
        "INSERT INTO chaos_t VALUES ({next_value}, {next_value})"
    ))
    .unwrap();
    assert_eq!(
        engine.catalog().now().0,
        clock_before + 1,
        "[{label}] post-recovery commit must consume exactly one timestamp"
    );
    // 4. Zero orphaned staged manifests.
    let referenced: HashSet<String> = engine
        .catalog()
        .export()
        .unwrap()
        .tables
        .iter()
        .flat_map(|t| t.manifests.iter().map(|(_, file, _)| file.clone()))
        .collect();
    for meta in inner.list("lake/").unwrap() {
        let path = meta.path.as_str().to_owned();
        if path.contains("/_log/txn-") {
            assert!(
                referenced.contains(&path),
                "[{label}] orphaned staged manifest after recovery: {path}"
            );
        }
    }
    drop(engine);
    // 5. Double-reopen idempotence.
    let again = open_plain(&inner);
    let export_a = open_plain(&inner).catalog().export().unwrap();
    let export_b = again.catalog().export().unwrap();
    assert_eq!(export_a, export_b, "[{label}] double reopen diverged");

    format!(
        "[{label}] ok: kill_fired={} acked={} refused={} replayed={} torn={} orphans_swept={}",
        outcome.kill_fired,
        acked.len(),
        outcome.refused.len(),
        report.replayed_commits,
        report.torn_records,
        report.orphans_collected
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg_val = |flag: &str| -> Option<u64> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let base_seed = arg_val("--seed").unwrap_or(0xC0FFEE);
    let soak = arg_val("--soak").unwrap_or(0);

    let site_label = |site: &KillSite| match site {
        KillSite::Store { op, path, .. } => format!("store:{op}@{path}"),
        KillSite::Probe { point, .. } => format!("probe:{point}"),
    };

    // Bounded deterministic matrix: every site, two seeds each.
    let mut lines = Vec::new();
    for (site, durable_after) in SITES {
        for k in 0..2u64 {
            let seed = base_seed ^ (k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let label = format!("{} seed={seed:#x}", site_label(site));
            lines.push(run_scenario(&label, site, *durable_after, seed));
        }
    }
    // Soak: randomized nth and seeds over the same matrix.
    let mut rng = base_seed | 1;
    for i in 0..soak {
        let pick = (next_rand(&mut rng) as usize) % SITES.len();
        let (site, durable_after) = &SITES[pick];
        let nth = next_rand(&mut rng) % 3 + 1;
        let site = match site {
            KillSite::Store { op, path, .. } => KillSite::Store { op, path, nth },
            KillSite::Probe { point, .. } => KillSite::Probe { point, nth },
        };
        let seed = next_rand(&mut rng);
        let label = format!("soak#{i} {} nth={nth} seed={seed:#x}", site_label(&site));
        lines.push(run_scenario(&label, &site, *durable_after, seed));
    }

    for line in &lines {
        println!("{line}");
    }
    println!(
        "chaos: {} scenarios passed (committed-stays-committed, \
         aborted-leaves-no-trace, dense clock, zero orphans, \
         double-reopen idempotence)",
        lines.len()
    );
}
