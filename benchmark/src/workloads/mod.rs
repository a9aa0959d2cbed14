//! The four workloads and what they share: engine construction, the result
//! of one epoch, and output checking.
//!
//! Every workload is a closed loop: its callers are ETL jobs and BI sessions
//! that wait for each reply, so a client issues its next operation only when
//! the previous one has returned. The reference box has 2 cores; no workload
//! uses more than 2 client threads, all in this one process.
//!
//! A run is a sequence of *epochs*. An epoch builds a fresh engine over an
//! empty store, sets it up, runs a **fixed number of operations**, checks the
//! outputs, then crashes the engine and times recovery. Table and catalog
//! state grow with history, so a phase bounded by time would do a different
//! amount of work each run; an epoch always does the same work from the same
//! state, and `--seconds` only decides how many epochs a run pools.

pub mod analytic_scan;
pub mod concurrent_commit;
pub mod trickle_insert;
pub mod wp3_mixed;

use crate::alloc::{self, AllocCounts};
use crate::probes::Probe;
use crate::trace::{Recorder, Span, SpanStore, StoreCounts};
use polaris_columnar::{ColumnVector, RecordBatch, Value};
use polaris_core::{EngineConfig, PolarisEngine, Session};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{LatencyModel, MemoryStore, ObjectStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Names are fixed: later issues cite them.
pub const WORKLOADS: [&str; 4] = [
    "trickle_insert",
    "analytic_scan",
    "wp3_mixed",
    "concurrent_commit",
];

/// Storage model of the two workloads that pay for round trips.
pub const CLOUD: LatencyModel = LatencyModel {
    per_request: Duration::from_micros(200),
    per_byte: Duration::from_nanos(10),
};

/// How many cold `PolarisEngine::open` calls end each epoch.
pub const REOPENS: usize = 5;

/// 2 Read + 2 Write nodes × 2 slots, plus 2 System nodes × 2 slots.
fn pool() -> Arc<ComputePool> {
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    pool
}

/// `EngineConfig::default()` with the commit log on (flush policy: every
/// sequencer batch is appended to the WAL before it publishes, a catalog
/// checkpoint every 64 logged batches, 1 MiB segments).
fn config(group_commit_max_batch: usize) -> EngineConfig {
    EngineConfig {
        commit_log_enabled: true,
        group_commit_max_batch,
        ..EngineConfig::default()
    }
}

/// A durable engine over `store`, every request reported to `rec`; also how
/// long `PolarisEngine::open` took, without the harness's own part (the
/// pool's threads, the store wrapper).
fn timed_open<S: ObjectStore + 'static>(
    store: S,
    rec: &Arc<Recorder>,
    group_commit_max_batch: usize,
) -> Res<(Arc<PolarisEngine>, Duration)> {
    let store: Arc<dyn ObjectStore> = Arc::new(SpanStore::new(store, Arc::clone(rec)));
    let (pool, config) = (pool(), config(group_commit_max_batch));
    let t = Instant::now();
    let engine = PolarisEngine::open(store, pool, config)?;
    Ok((engine, t.elapsed()))
}

/// A durable engine over `store`, every request reported to `rec`.
pub fn open<S: ObjectStore + 'static>(
    store: S,
    rec: &Arc<Recorder>,
    group_commit_max_batch: usize,
) -> Res<Arc<PolarisEngine>> {
    Ok(timed_open(store, rec, group_commit_max_batch)?.0)
}

/// Output checks and failed operations of one epoch. Anything counted here
/// makes the run incorrect and the process exit non-zero.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// One attempted operation or check; `what` is kept when it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Count an operation, unwrapping its result; an error is a failure.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.expect(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// What the replay probes need from the last epoch: the recovered engine at
/// the workload's end state, the raw store under it (so probes pay no
/// simulated latency), the table whose history they replay, and the
/// statements the workload sent.
pub struct EndState {
    pub engine: Arc<PolarisEngine>,
    pub mem: Arc<MemoryStore>,
    pub table: String,
    pub statements: Vec<String>,
}

/// What one epoch measured. Times are nanoseconds unless named otherwise.
#[derive(Default)]
pub struct Epoch {
    pub setup_s: f64,
    /// Wall time of the measured phase — what `--seconds` budgets.
    pub measured_ns: u64,
    /// `VmHWM` of the process when the measured phase ended.
    pub peak_rss_mb: f64,
    /// Busy time of the measured phase summed over the client threads.
    pub busy_ns: u64,
    pub clients: u64,
    /// How many of the clients commit write transactions.
    pub writers: u64,
    /// Committed write transactions and the client time spent on them.
    pub txns: u64,
    pub txn_busy_ns: u64,
    pub queries: u64,
    pub query_busy_ns: u64,
    /// Latency samples per operation shape.
    pub shapes: BTreeMap<&'static str, Vec<f64>>,
    pub recovery_ms: Vec<f64>,
    /// Store traffic of the whole epoch (load included) and of the measured
    /// phase alone.
    pub store_epoch: StoreCounts,
    pub store_measured: StoreCounts,
    /// Bytes of row data the clients inserted, and what is left live.
    pub user_bytes: u64,
    pub live_user_bytes: u64,
    /// Committed bytes in the object store when the epoch ended.
    pub live_store_bytes: u64,
    /// Allocations of the measured phase, all threads (traced epochs only).
    pub allocs: AllocCounts,
    pub tally: Tally,
    /// Per-layer values only this workload can observe in situ.
    pub layer: BTreeMap<&'static str, f64>,
    /// Spans of the measured phase (traced epochs only).
    pub spans: Vec<Span>,
    pub end: Option<EndState>,
}

impl Epoch {
    pub fn sample(&mut self, shape: &'static str, ns: u64) {
        self.shapes.entry(shape).or_default().push(ns as f64);
    }
}

/// The measured phase of an epoch: spans and allocation counting are on only
/// between [`Measured::begin`] and [`Measured::end`], so set-up, output
/// checks and recovery never show in the per-layer numbers.
pub struct Measured {
    started: Instant,
    store_before: StoreCounts,
    allocs_before: AllocCounts,
    /// Traced epochs only: a thread sampling how many Read-lane slots are
    /// occupied, every half millisecond; it returns the mean share.
    lanes: Option<(Arc<AtomicBool>, JoinHandle<f64>)>,
}

impl Measured {
    pub fn begin(rec: &Recorder, tracing: bool, engine: &Arc<PolarisEngine>) -> Measured {
        let lanes = tracing.then(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let (flag, pool) = (Arc::clone(&stop), Arc::clone(engine.pool()));
            let sampler = std::thread::spawn(move || {
                let (mut busy, mut slots) = (0usize, 0usize);
                // SeqCst: the flag is the only thing the two threads share.
                while !flag.load(Ordering::SeqCst) {
                    busy += pool.busy(WorkloadClass::Read);
                    slots += pool.capacity(WorkloadClass::Read);
                    std::thread::sleep(Duration::from_micros(500));
                }
                crate::stats::ratio(busy as f64, slots as f64)
            });
            (stop, sampler)
        });
        rec.set_tracing(tracing);
        alloc::set_counting(tracing);
        Measured {
            started: Instant::now(),
            store_before: rec.counts(),
            allocs_before: alloc::process_counts(),
            lanes,
        }
    }

    pub fn end(self, rec: &Recorder, ep: &mut Epoch) {
        ep.measured_ns = self.started.elapsed().as_nanos() as u64;
        ep.peak_rss_mb = peak_rss_mb();
        alloc::set_counting(false);
        rec.set_tracing(false);
        if let Some((stop, sampler)) = self.lanes {
            stop.store(true, Ordering::SeqCst);
            let share = sampler.join().expect("the lane sampler does not panic");
            ep.layer.insert("dcp.read_lane_busy_share", share);
        }
        ep.store_measured = rec.counts().since(self.store_before);
        ep.allocs = alloc::process_counts().since(self.allocs_before);
        ep.spans = rec.take_spans();
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Crash recovery: the caller has dropped the engine (the kill); open it
/// cold [`REOPENS`] times over what the store holds, timing each open and
/// running the durability check after each. Returns the last incarnation.
///
/// The two workloads on simulated cloud storage time their opens over it,
/// with `check` doing nothing, and then verify through [`recovered`]: a check
/// that scans a thousand one-row files at 200 µs a request would cost more
/// than the workload it checks.
pub fn reopen<S: ObjectStore + 'static>(
    ep: &mut Epoch,
    tally: &mut Tally,
    rec: &Arc<Recorder>,
    group_commit_max_batch: usize,
    store: impl Fn() -> S,
    check: impl Fn(&mut Tally, &mut Session),
) -> Res<Arc<PolarisEngine>> {
    let mut last: Option<Arc<PolarisEngine>> = None;
    // Dropping an engine joins its telemetry thread, which sleeps 100 ms
    // between ticks: five drops in a row would idle half a second of every
    // epoch. The incarnations a reopen replaces do nothing more (no client,
    // no STO), so they are dropped on the side and waited for together.
    let mut dying = Vec::new();
    for _ in 0..REOPENS {
        if let Some(previous) = last.take() {
            dying.push(std::thread::spawn(move || drop(previous)));
        }
        let (engine, took) = timed_open(store(), rec, group_commit_max_batch)?;
        ep.recovery_ms.push(took.as_secs_f64() * 1e3);
        check(tally, &mut engine.session());
        last = Some(engine);
    }
    for thread in dying {
        thread.join().expect("dropping an engine does not panic");
    }
    Ok(last.expect("REOPENS is at least 1"))
}

/// One more recovery, straight over the bytes in `mem` with no simulated
/// latency, checked: what the crashed engine acknowledged is what a fresh one
/// reads.
pub fn recovered(
    tally: &mut Tally,
    rec: &Arc<Recorder>,
    mem: &Arc<MemoryStore>,
    group_commit_max_batch: usize,
    check: impl Fn(&mut Tally, &mut Session),
) -> Res<Arc<PolarisEngine>> {
    let engine = open(Arc::clone(mem), rec, group_commit_max_batch)?;
    check(tally, &mut engine.session());
    Ok(engine)
}

/// Per-workload operation counts. `quick` is the smoke-test size.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// An untraced run makes at least this many epochs, so `setup_s` and
    /// `recovery_ms` are taken over several set-ups and crashes.
    pub min_epochs: usize,
    pub probe: Probe,
    /// Idle time before the first epoch of a run (see `main::single`).
    pub settle: Duration,
    pub trickle_warmup: usize,
    pub trickle_ops: usize,
    pub trickle_sto_every: usize,
    pub scan_rows: usize,
    pub scan_batches: usize,
    pub scan_passes: usize,
    pub wp3_sf: f64,
    pub wp3_rounds: usize,
    pub wp3_dm_per_round: usize,
    pub commit_ops_per_client: usize,
    pub commit_conflict_every: usize,
    pub commit_compact_every_rounds: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        min_epochs: 3,
        settle: Duration::from_secs(6),
        probe: Probe {
            budget: Duration::from_millis(120),
        },
        trickle_warmup: 256,
        trickle_ops: 4096,
        trickle_sto_every: 256,
        scan_rows: 100_000,
        scan_batches: 8,
        scan_passes: 16,
        wp3_sf: 8.0,
        wp3_rounds: 4,
        wp3_dm_per_round: 4,
        commit_ops_per_client: 1024,
        commit_conflict_every: 32,
        commit_compact_every_rounds: 16,
    };

    pub const QUICK: Sizes = Sizes {
        min_epochs: 1,
        settle: Duration::ZERO,
        probe: Probe {
            budget: Duration::ZERO,
        },
        trickle_warmup: 8,
        trickle_ops: 96,
        trickle_sto_every: 32,
        scan_rows: 4_000,
        scan_batches: 2,
        scan_passes: 2,
        wp3_sf: 0.5,
        wp3_rounds: 1,
        wp3_dm_per_round: 2,
        commit_ops_per_client: 64,
        commit_conflict_every: 16,
        commit_compact_every_rounds: 2,
    };
}

/// Run one epoch of `workload`.
pub fn run_epoch(workload: &str, seed: u64, sizes: &Sizes, tracing: bool) -> Res<Epoch> {
    match workload {
        "trickle_insert" => trickle_insert::epoch(seed, sizes, tracing),
        "analytic_scan" => analytic_scan::epoch(seed, sizes, tracing),
        "wp3_mixed" => wp3_mixed::epoch(seed, sizes, tracing),
        "concurrent_commit" => concurrent_commit::epoch(seed, sizes, tracing),
        other => Err(format!("unknown workload {other}").into()),
    }
}

/// Bytes of row data in `batch`: 8 per integer or float, 4 per date, 1 per
/// boolean, the UTF-8 length of a string.
pub fn user_bytes(batch: &RecordBatch) -> u64 {
    let valid = |col: &ColumnVector| (col.len() - col.null_count()) as u64;
    batch
        .columns()
        .iter()
        .map(|col| match col {
            ColumnVector::Int64 { .. } | ColumnVector::Float64 { .. } => 8 * valid(col),
            ColumnVector::Date32 { .. } => 4 * valid(col),
            ColumnVector::Bool { .. } => valid(col),
            ColumnVector::Utf8 { values, .. } => (0..values.len())
                .filter(|&i| col.is_valid(i))
                .map(|i| values[i].len() as u64)
                .sum(),
        })
        .sum()
}

/// SplitMix64: the harness's generator for insert values and query keys.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// First column of the single row a `SELECT COUNT(*)`-style query returns.
pub fn scalar_i64(batch: &RecordBatch, col: usize) -> Option<i64> {
    if batch.num_rows() != 1 {
        return None;
    }
    match batch.column(col).value(0) {
        Value::Int(n) => Some(n),
        _ => None,
    }
}

/// `SELECT COUNT(*), SUM(col) FROM table` checked against the generator.
pub fn check_count_sum(
    tally: &mut Tally,
    session: &mut Session,
    table: &str,
    col: &str,
    rows: i64,
    sum: i64,
    when: &str,
) {
    let sql = format!("SELECT COUNT(*) AS n, SUM({col}) AS s FROM {table}");
    let got = tally
        .op(&sql, session.query(&sql))
        .map(|b| (scalar_i64(&b, 0), scalar_i64(&b, 1)));
    tally.expect(got == Some((Some(rows), Some(sum))), || {
        format!("{table} {when}: expected ({rows}, {sum}), got {got:?}")
    });
}
