//! One simulated store: cloud latency, seeded transient faults, death at an
//! exact operation and a request tap, all behind one gate.
//!
//! Faults test §4.3's claim that a failed write task is free to retry.
//! Kills test that an acknowledged commit survives a crash: as after a
//! `kill -9`, neither the in-flight request nor any later one (cleanup
//! included) reaches storage, and a harness reopens the engine through a
//! fresh wrapper over the same inner store.
//!
//! Every request passes one gate, in this order:
//! 1. a dead store refuses it and counts it in [`SimStore::frozen_ops`];
//! 2. an armed kill fires;
//! 3. a seeded fault is drawn;
//! 4. the tap sees it;
//! 5. the latency model is charged.
//!
//! A request refused by steps 1–3 reaches no tap, no store and no clock.
//! Reads of data are charged after the read, for the bytes they return;
//! `committed_blocks` is free.

use crate::{BlobMeta, BlobPath, BlockId, ObjectStore, Stamp, StoreError, StoreResult};
use bytes::Bytes;
use parking_lot::Mutex;
use polaris_obs::{Counter, MetricsRegistry, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Simple affine cost model for remote storage: each operation pays a fixed
/// per-request latency plus a per-byte transfer cost.
///
/// Defaults are loosely calibrated to cloud object storage (sub-ms in-region
/// request latency scaled down so benches finish quickly, ~100 MB/s
/// effective single-stream throughput). The *relative* costs are what matter
/// for figure shapes: many-small-files pays per-request overhead, which is
/// precisely the §5.1 "small data files" pathology compaction fixes.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Fixed cost per request.
    pub per_request: Duration,
    /// Transfer cost per byte.
    pub per_byte: Duration,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            per_request: Duration::from_micros(200),
            per_byte: Duration::from_nanos(10),
        }
    }
}

impl LatencyModel {
    /// A model with zero cost (useful to disable latency in one code path).
    pub const ZERO: LatencyModel = LatencyModel {
        per_request: Duration::ZERO,
        per_byte: Duration::ZERO,
    };

    fn cost(&self, bytes: usize) -> Duration {
        self.per_request + self.per_byte * (bytes as u32)
    }
}

/// The latency-only wrapper's old name, which the benchmark still uses.
pub type LatencyStore<S> = SimStore<S>;

/// One request as the tap sees it: the method's name, the path (or, for
/// `list`, the prefix) it names, and the bytes it carries to the store.
pub struct Request<'a> {
    pub op: &'static str,
    pub path: &'a str,
    pub bytes: u64,
}

/// What [`SimStore::with_tap`] shows each request to.
type Tap = Box<dyn Fn(Request<'_>) + Send + Sync>;

/// A mutation: `any-write` kills it and the write rate fails it.
fn is_write(op: &str) -> bool {
    matches!(op, "put" | "delete" | "stage_block" | "commit_block_list")
}

/// [`ObjectStore`] wrapper that simulates cloud storage and its failures.
///
/// With no kill armed, both fault rates at 0 and no tap, a request takes
/// no lock: the gate reads atomics and sleeps its latency.
pub struct SimStore<S> {
    inner: S,
    model: LatencyModel,
    stalled_nanos: AtomicU64,
    /// Shared with failpoint probes so they and the store freeze together.
    killed: Arc<AtomicBool>,
    /// Matches left before the armed kill fires; 0 when none is armed, so
    /// an unarmed gate never takes the `kill_at` lock.
    kill_left: AtomicU64,
    /// The armed kill's op and path substring; `kill_left` moves under it.
    kill_at: Mutex<(String, String)>,
    frozen_ops: AtomicU64,
    /// Failure probabilities in `[0, 1]`, as `f64` bits.
    write_failure_rate: AtomicU64,
    read_failure_rate: AtomicU64,
    rng: Mutex<StdRng>,
    injected_write_faults: Counter,
    injected_read_faults: Counter,
    tracer: Mutex<Tracer>,
    tap: Option<Tap>,
}

impl<S: ObjectStore> SimStore<S> {
    /// Wrap `inner`, charging each request by `model`; no faults, no kill
    /// armed, no tap.
    pub fn new(inner: S, model: LatencyModel) -> Self {
        SimStore {
            inner,
            model,
            stalled_nanos: AtomicU64::new(0),
            killed: Arc::new(AtomicBool::new(false)),
            kill_left: AtomicU64::new(0),
            kill_at: Mutex::default(),
            frozen_ops: AtomicU64::new(0),
            write_failure_rate: AtomicU64::new(0f64.to_bits()),
            read_failure_rate: AtomicU64::new(0f64.to_bits()),
            rng: Mutex::new(StdRng::seed_from_u64(0)),
            injected_write_faults: Counter::new(),
            injected_read_faults: Counter::new(),
            tracer: Mutex::new(Tracer::default()),
            tap: None,
        }
    }

    /// Fail `write_rate` of writes, drawing from an RNG seeded with `seed`
    /// so a run's faults repeat.
    pub fn with_faults(self, write_rate: f64, seed: u64) -> Self {
        self.set_write_failure_rate(write_rate);
        *self.rng.lock() = StdRng::seed_from_u64(seed);
        self
    }

    /// Show every request that passes the kill and fault steps to `tap`,
    /// before the inner store sees it — to count requests, or to hold one.
    pub fn with_tap(mut self, tap: impl Fn(Request<'_>) + Send + Sync + 'static) -> Self {
        self.tap = Some(Box::new(tap));
        self
    }

    /// Change the write failure rate mid-run — chaos tests turn faults on
    /// for the phase under test and back off for deterministic teardown.
    pub fn set_write_failure_rate(&self, rate: f64) {
        store_rate(&self.write_failure_rate, rate);
    }

    /// Change the read failure rate mid-run (`get`, `get_range` and `list`
    /// can fail), e.g. so only the scans after a fault-free setup fail.
    pub fn set_read_failure_rate(&self, rate: f64) {
        store_rate(&self.read_failure_rate, rate);
    }

    /// Faults injected so far as `(write_faults, read_faults)`.
    pub fn injected_faults(&self) -> (u64, u64) {
        let writes = self.injected_write_faults.get();
        (writes, self.injected_read_faults.get())
    }

    /// Publish the fault counters into `registry` so chaos harnesses can see
    /// how many failures they actually provoked.
    pub fn bind_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter("store.injected_write_faults", &self.injected_write_faults);
        registry.adopt_counter("store.injected_read_faults", &self.injected_read_faults);
    }

    /// Record every injected fault as a `store.injected_fault` instant
    /// event in `tracer`, parented under whatever span was executing.
    pub fn bind_tracer(&self, tracer: &Tracer) {
        *self.tracer.lock() = tracer.clone();
    }

    /// Arm a kill at the `nth` (1-based) operation whose kill name matches
    /// `op` (or `any-write` for any mutation) and whose path contains
    /// `path_contains`. The matching operation itself fails — the crash
    /// happens *before* its effect lands — and the store is dead from
    /// then on.
    pub fn arm(&self, op: &str, path_contains: &str, nth: u64) {
        let mut kill_at = self.kill_at.lock();
        *kill_at = (op.to_owned(), path_contains.to_owned());
        self.kill_left.store(nth.max(1), Ordering::SeqCst);
    }

    /// Pull the trigger immediately (used by commit failpoint probes to
    /// die between storage operations).
    pub fn kill_now(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    /// The shared kill switch — hand this to failpoint probes so they and
    /// the store freeze together.
    pub fn kill_switch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.killed)
    }

    /// Has the simulated process died?
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Operations refused post-mortem (cleanup the dying process never
    /// got to run).
    pub fn frozen_ops(&self) -> u64 {
        self.frozen_ops.load(Ordering::SeqCst)
    }

    /// Total time spent sleeping to simulate storage latency.
    pub fn total_stall(&self) -> Duration {
        Duration::from_nanos(self.stalled_nanos.load(Ordering::Relaxed))
    }

    /// Access the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The module docs' steps 1–5 for request `op`, which sends `sent` bytes.
    fn gate(&self, op: &'static str, path: &str, sent: usize) -> StoreResult<()> {
        if self.killed() {
            self.frozen_ops.fetch_add(1, Ordering::SeqCst);
            return Err(StoreError::Transient {
                detail: format!("chaos: process dead, {op} refused"),
            });
        }
        if self.kill_left.load(Ordering::SeqCst) > 0 {
            self.fire_armed_kill(op, path)?;
        }
        if is_write(op) {
            self.draw_fault(&self.write_failure_rate, &self.injected_write_faults, op)?;
        } else if matches!(op, "get" | "get_range" | "list") {
            self.draw_fault(&self.read_failure_rate, &self.injected_read_faults, op)?;
        }
        if let Some(tap) = &self.tap {
            let bytes = sent as u64;
            tap(Request { op, path, bytes });
        }
        if !matches!(op, "get" | "get_range" | "committed_blocks") {
            self.pay(sent);
        }
        Ok(())
    }

    fn fire_armed_kill(&self, op: &str, path: &str) -> StoreResult<()> {
        let (kill_op, path_contains) = &*self.kill_at.lock();
        // Every read of one blob is a `get` to a kill.
        let name = match op {
            "get_range" | "head" | "committed_blocks" => "get",
            op => op,
        };
        let op_matches = kill_op == name || (kill_op == "any-write" && is_write(op));
        let left = self.kill_left.load(Ordering::SeqCst);
        if left == 0 || !op_matches || !path.contains(path_contains.as_str()) {
            return Ok(());
        }
        self.kill_left.store(left - 1, Ordering::SeqCst);
        if left > 1 {
            return Ok(());
        }
        self.kill_now();
        Err(StoreError::Transient {
            detail: format!("chaos: killed at {op} {path}"),
        })
    }

    fn draw_fault(&self, rate: &AtomicU64, counter: &Counter, op: &str) -> StoreResult<()> {
        let rate = f64::from_bits(rate.load(Ordering::Relaxed));
        if rate > 0.0 && self.rng.lock().gen_bool(rate) {
            counter.inc();
            let attrs = vec![("op", op.into())];
            self.tracer.lock().instant("store.injected_fault", attrs);
            return Err(StoreError::Transient {
                detail: format!("injected fault during {op}"),
            });
        }
        Ok(())
    }

    fn pay(&self, bytes: usize) {
        let d = self.model.cost(bytes);
        if !d.is_zero() {
            std::thread::sleep(d);
            self.stalled_nanos
                .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

fn store_rate(slot: &AtomicU64, rate: f64) {
    assert!(
        (0.0..=1.0).contains(&rate),
        "failure rate must be a probability"
    );
    slot.store(rate.to_bits(), Ordering::Relaxed);
}

impl<S: ObjectStore> ObjectStore for SimStore<S> {
    fn put(&self, path: &BlobPath, data: Bytes, stamp: Stamp) -> StoreResult<()> {
        self.gate("put", path.as_str(), data.len())?;
        self.inner.put(path, data, stamp)
    }

    fn get(&self, path: &BlobPath) -> StoreResult<Bytes> {
        self.gate("get", path.as_str(), 0)?;
        let data = self.inner.get(path)?;
        self.pay(data.len());
        Ok(data)
    }

    fn get_range(&self, path: &BlobPath, range: Range<u64>) -> StoreResult<Bytes> {
        self.gate("get_range", path.as_str(), 0)?;
        let data = self.inner.get_range(path, range)?;
        self.pay(data.len());
        Ok(data)
    }

    fn head(&self, path: &BlobPath) -> StoreResult<BlobMeta> {
        self.gate("head", path.as_str(), 0)?;
        self.inner.head(path)
    }

    fn delete(&self, path: &BlobPath) -> StoreResult<()> {
        self.gate("delete", path.as_str(), 0)?;
        self.inner.delete(path)
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<BlobMeta>> {
        self.gate("list", prefix, 0)?;
        self.inner.list(prefix)
    }

    fn stage_block(
        &self,
        path: &BlobPath,
        block: BlockId,
        data: Bytes,
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.gate("stage_block", path.as_str(), data.len())?;
        self.inner.stage_block(path, block, data, stamp)
    }

    fn commit_block_list(
        &self,
        path: &BlobPath,
        blocks: &[BlockId],
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.gate("commit_block_list", path.as_str(), 0)?;
        self.inner.commit_block_list(path, blocks, stamp)
    }

    fn committed_blocks(&self, path: &BlobPath) -> StoreResult<Vec<BlockId>> {
        self.gate("committed_blocks", path.as_str(), 0)?;
        self.inner.committed_blocks(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;

    type Seen = Arc<Mutex<Vec<&'static str>>>;

    fn p(s: &str) -> BlobPath {
        BlobPath::new(s).unwrap()
    }

    fn xyz() -> Bytes {
        Bytes::from_static(b"xyz")
    }

    /// `inner` behind a tap that records each request's name.
    fn tapped<S: ObjectStore>(inner: S, model: LatencyModel) -> (SimStore<S>, Seen) {
        let seen: Seen = Arc::default();
        let log = Arc::clone(&seen);
        let store = SimStore::new(inner, model).with_tap(move |r| log.lock().push(r.op));
        (store, seen)
    }

    /// A store charging 1 µs a request plus 1 ns a byte, tapped, over a
    /// tapped store holding `a/b` = "hello": the inner tap shows which
    /// requests reached the inner store.
    fn fixture() -> (SimStore<SimStore<MemoryStore>>, Seen, Seen) {
        let mem = MemoryStore::new();
        mem.put(&p("a/b"), Bytes::from_static(b"hello"), Stamp(1))
            .unwrap();
        let (inner, reached) = tapped(mem, LatencyModel::ZERO);
        let meter = LatencyModel {
            per_request: Duration::from_micros(1),
            per_byte: Duration::from_nanos(1),
        };
        let (store, seen) = tapped(inner, meter);
        (store, seen, reached)
    }

    /// Call the method named `op` once on the fixture's blob.
    fn call(s: &dyn ObjectStore, op: &str) -> StoreResult<()> {
        let a = p("a/b");
        match op {
            "put" => s.put(&a, xyz(), Stamp(2)),
            "get" => s.get(&a).map(drop),
            "get_range" => s.get_range(&a, 1..3).map(drop),
            "head" => s.head(&a).map(drop),
            "delete" => s.delete(&a),
            "list" => s.list("a/").map(drop),
            "stage_block" => s.stage_block(&a, BlockId::new("b1"), xyz(), Stamp(2)),
            "commit_block_list" => s.commit_block_list(&a, &[], Stamp(2)),
            "committed_blocks" => s.committed_blocks(&a).map(drop),
            _ => unreachable!("{op}"),
        }
    }

    /// Per method: (name, kill name, an `any-write`, the rate that fails it,
    /// the bytes charged or `None` for no charge at all).
    #[rustfmt::skip]
    const TABLE: [(&str, &str, bool, &str, Option<u64>); 9] = [
        ("put", "put", true, "write", Some(3)),
        ("get", "get", false, "read", Some(5)),
        ("get_range", "get", false, "read", Some(2)),
        ("head", "get", false, "", Some(0)),
        ("delete", "delete", true, "write", Some(0)),
        ("list", "list", false, "read", Some(0)),
        ("stage_block", "stage_block", true, "write", Some(3)),
        ("commit_block_list", "commit_block_list", true, "write", Some(0)),
        ("committed_blocks", "get", false, "", None),
    ];

    /// Call `op` on a fixture set up by `setup`, and say whether it was
    /// refused. A refused request reaches no tap, no store and no clock.
    fn refused(op: &str, setup: impl FnOnce(&SimStore<SimStore<MemoryStore>>)) -> bool {
        let (s, seen, reached) = fixture();
        setup(&s);
        let refused = call(&s, op).is_err();
        if refused {
            assert!(seen.lock().is_empty(), "{op} reached the tap");
            assert!(reached.lock().is_empty(), "{op} reached the store");
            assert_eq!(s.total_stall(), Duration::ZERO, "{op} was charged");
        }
        refused
    }

    #[test]
    fn every_method_follows_the_op_table() {
        for (name, kill_name, write, fails, charged) in TABLE {
            // Tapped by its name, charged as the table says (a zero model: nothing).
            let (s, seen, reached) = fixture();
            call(&s, name).unwrap();
            assert_eq!(*seen.lock(), [name]);
            assert_eq!(*reached.lock(), [name]);
            let stall = charged.map_or(0, |bytes| 1_000 + bytes);
            assert_eq!(s.total_stall(), Duration::from_nanos(stall), "{name}");
            assert_eq!(s.inner().total_stall(), Duration::ZERO, "{name}");

            assert!(refused(name, |s| s.kill_now()), "{name} on a dead store");
            // A kill on its kill name fires, on no other; `any-write` if it writes.
            for armed in TABLE.map(|t| t.1).into_iter().chain(["any-write"]) {
                let fires = armed == kill_name || (armed == "any-write" && write);
                let killed = refused(name, |s| s.arm(armed, "a/", 1));
                assert_eq!(killed, fires, "{name} under a kill on {armed}");
            }
            // Only its own rate fails it.
            let by_write = refused(name, |s| s.set_write_failure_rate(1.0));
            assert_eq!(by_write, fails == "write", "{name} under write faults");
            let by_read = refused(name, |s| s.set_read_failure_rate(1.0));
            assert_eq!(by_read, fails == "read", "{name} under read faults");
        }
    }

    #[test]
    fn same_seed_gives_same_fault_sequence() {
        let run = |seed| {
            let s = SimStore::new(MemoryStore::new(), LatencyModel::ZERO).with_faults(0.5, seed);
            (0..64)
                .map(|_| s.put(&p("a/b"), xyz(), Stamp(1)).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn armed_kill_fires_at_nth_match_and_freezes() {
        let s = SimStore::new(MemoryStore::new(), LatencyModel::ZERO);
        s.arm("put", "wal", 2);
        // First matching put survives; unrelated paths never match.
        s.put(&p("data/x"), xyz(), Stamp(1)).unwrap();
        s.put(&p("sys/wal/1"), xyz(), Stamp(1)).unwrap();
        let err = s.put(&p("sys/wal/2"), xyz(), Stamp(1)).unwrap_err();
        assert!(matches!(err, StoreError::Transient { .. }));
        assert!(s.killed());
        // Dead store refuses everything, including cleanup deletes and reads.
        assert!(s.delete(&p("data/x")).is_err());
        assert!(s.get(&p("data/x")).is_err());
        assert_eq!(s.frozen_ops(), 2);
        // The killed op never landed on the inner store.
        assert!(s.inner().get(&p("sys/wal/2")).is_err());
        assert!(s.inner().get(&p("sys/wal/1")).is_ok());
    }

    #[test]
    fn kill_switch_is_shared() {
        let s = SimStore::new(MemoryStore::new(), LatencyModel::ZERO);
        s.kill_switch().store(true, Ordering::SeqCst);
        assert!(s.killed());
        assert!(s.put(&p("a/b"), xyz(), Stamp(1)).is_err());
    }

    #[test]
    fn any_write_ignores_reads() {
        let s = SimStore::new(MemoryStore::new(), LatencyModel::ZERO);
        s.put(&p("a/b"), xyz(), Stamp(1)).unwrap();
        s.arm("any-write", "", 1);
        assert!(s.get(&p("a/b")).is_ok(), "reads never match any-write");
        assert!(s.delete(&p("a/b")).is_err());
        assert!(s.killed());
    }
}
