//! Cross-layer observability substrate for the Polaris reproduction.
//!
//! The paper's evaluation (§7) is a story about *where time and I/O go*:
//! storage requests saved by manifest statistics, cache misses induced by
//! compaction, task retries under node loss. Every layer of this workspace
//! reports into one [`MetricsRegistry`] so those quantities are measured the
//! same way everywhere; `/metrics` ([`prom`]) and `polaris.metrics` serve it.
//!
//! Design constraints:
//!
//! * **Lock-free hot path.** Counters, gauges and histogram buckets are
//!   plain atomics. The only locks in the crate guard *registration*
//!   (first lookup of a metric name), never recording.
//! * **Shared by handle.** [`Counter`], [`Gauge`] and [`Histogram`] are
//!   cheaply cloneable `Arc` handles. A component can create its own
//!   counters up front and later *adopt* them into an engine's registry
//!   ([`MetricsRegistry::adopt_counter`]) — the handle keeps working, the
//!   registry merely learns to snapshot it.
//! * **Names are `component.metric`.** E.g. `store.reads`,
//!   `lst.cache.hits`, `catalog.commits`, `dcp.task_attempts`,
//!   `exec.files_pruned`, `sto.compactions`.
//!
//! Besides the registry this crate defines the per-statement accounting
//! types threaded through the engine: [`ScanMeter`] (bumped by BE scan
//! tasks), [`QueryProfile`] / [`TxnProfile`] (returned by
//! `Session::last_profile()` in `polaris-core`), and the transaction-scoped
//! tracing subsystem in [`trace`] ([`Tracer`] / [`TraceSink`] / renderers).
//! A profile's per-phase record uses the one [`Phase`] vocabulary the
//! allocation and wait attribution in [`alloc`] use.
//!
//! # Concurrency model
//!
//! Every handle type here is designed to be recorded into from many
//! threads at once with no coordination: [`Counter`]/[`Gauge`] are single
//! relaxed atomics, [`Histogram`] records into fixed power-of-two buckets
//! of atomics, and trace events claim ring slots with one `fetch_add`.
//! Snapshots ([`MetricsRegistry::snapshot`]) read those atomics without
//! stopping writers, so a snapshot is a consistent-enough point-in-time
//! view for dashboards, not a linearizable cut. A metric with a dimension
//! is one family of labeled names built by [`MetricName`] — e.g. one
//! `alloc.bytes{phase="…"}` counter per [`Phase`] — while the catalog's
//! one commit lock has one hold histogram, `catalog.commit_lock_hold_ns`.
//!
//! # Continuous telemetry
//!
//! Point-in-time snapshots miss rates, trends and stalls. Three modules
//! turn the registry into an always-on service surface: [`ts`] (a
//! [`Harvester`] thread sampling the registry into bounded time-series
//! rings), [`health`] (a [`Watchdog`] evaluating stall rules each tick
//! plus a bounded [`SlowLog`]), and [`prom`] (zero-dependency Prometheus
//! text exposition over `std::net::TcpListener`).

pub mod alloc;
pub mod health;
pub mod name;
pub mod prom;
pub mod trace;
pub mod ts;

pub use alloc::{AllocMetrics, AllocTotals, Phase, PhaseScope, PhaseTotals, PHASE_COUNT};
pub use health::{HealthEvent, SlowEntry, SlowLog, Watchdog};
pub use name::{MetricName, NameError};
pub use prom::{encode_prometheus, http_get, HealthFn, ProbeFn, TelemetryServer};
pub use trace::{
    build_spans, post_mortem_dump, render_span_tree, AttrValue, SpanGuard, SpanRecord, TraceEvent,
    TraceEventKind, TraceSink, Tracer,
};
pub use ts::{Harvester, QuantilePoint, TimeSeriesSnapshot, TsPoint};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

/// Monotonic event counter; a cloneable handle onto one shared `AtomicU64`.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (benches do this between phases).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous level (queue depth, active transactions); may go down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh, unregistered gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of exponential buckets; bucket `i` covers values
/// `< 1_000 << i` nanoseconds (1 µs · 2^i), the last bucket is overflow.
pub const HIST_BUCKETS: usize = 28;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// Fixed-bucket latency histogram (nanosecond samples, exponential buckets
/// from 1 µs to ~134 s). Recording is one `fetch_add` per bucket + sum +
/// count — no locks, no allocation.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_index(ns: u64) -> usize {
        // bucket i covers ns < 1000 << i
        let mut i = 0;
        while i + 1 < HIST_BUCKETS && ns >= (1_000u64 << i) {
            i += 1;
        }
        i
    }

    /// Upper bound (exclusive, in ns) of bucket `i`; `None` for the
    /// overflow bucket. Public so exposition formats can render
    /// `le="<bound>"` boundaries that match recording exactly.
    pub fn bucket_bound(i: usize) -> Option<u64> {
        if i + 1 < HIST_BUCKETS {
            Some(1_000u64 << i)
        } else {
            None
        }
    }

    /// Relaxed load of every bucket's count, index-aligned with
    /// [`Histogram::bucket_bound`]. Length is always [`HIST_BUCKETS`].
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Allocation-free variant of [`Histogram::bucket_counts`]: fill a
    /// caller-owned stack array. The Harvester and watchdog rules use this
    /// so per-tick sampling touches no heap.
    pub fn bucket_counts_into(&self, out: &mut [u64; HIST_BUCKETS]) {
        for (slot, b) in out.iter_mut().zip(self.0.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
        }
    }

    /// Record one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let inner = &self.0;
        inner.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(ns, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the elapsed time of `since` as one sample.
    #[inline]
    pub fn record_since(&self, since: Instant) {
        self.record_ns(since.elapsed().as_nanos() as u64);
    }

    /// Start a scoped span that records into this histogram on drop.
    pub fn span(&self) -> Span {
        Span {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Snapshot with bucket counts and approximate quantiles (upper
    /// bucket bounds).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.bucket_counts();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum_ns: self.0.sum.load(Ordering::Relaxed),
            p50_ns: quantile_from_counts(&buckets, 0.50),
            p95_ns: quantile_from_counts(&buckets, 0.95),
            p99_ns: quantile_from_counts(&buckets, 0.99),
            buckets,
        }
    }
}

/// Approximate quantile `q` over an index-aligned bucket-count slice
/// (the shape [`Histogram::bucket_counts`] returns). Reports the bucket's
/// upper bound in ns; samples landing in the overflow bucket report the
/// last finite bound. Shared by [`Histogram::snapshot`] and the
/// harvester's per-tick delta quantiles in [`ts`].
pub fn quantile_from_counts(counts: &[u64], q: f64) -> u64 {
    let count: u64 = counts.iter().sum();
    if count == 0 {
        return 0;
    }
    let target = ((count as f64) * q).ceil() as u64;
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            return Histogram::bucket_bound(i)
                .or_else(|| Histogram::bucket_bound(HIST_BUCKETS - 2))
                .unwrap_or(u64::MAX);
        }
    }
    u64::MAX
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples in nanoseconds.
    pub sum_ns: u64,
    /// Approximate median (upper bucket bound), ns.
    pub p50_ns: u64,
    /// Approximate 95th percentile, ns.
    pub p95_ns: u64,
    /// Approximate 99th percentile, ns.
    pub p99_ns: u64,
    /// Per-bucket sample counts, index-aligned with
    /// [`Histogram::bucket_bound`]; the last entry is the overflow bucket.
    pub buckets: Vec<u64>,
}

/// Join `handle` unless it is the calling thread's own. A telemetry thread
/// that upgrades a `Weak` to its owner can end up dropping that owner —
/// whose `Drop` stops this very thread; it has raised the stop flag by
/// then, so the thread exits on its own, and std panics on a self-join.
pub(crate) fn join_unless_current(handle: std::thread::JoinHandle<()>) {
    if handle.thread().id() != std::thread::current().id() {
        let _ = handle.join();
    }
}

/// Scoped timer: records the elapsed wall time into its histogram on drop.
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record_since(self.start);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The shared metrics registry. One per [`PolarisEngine`]; every layer holds
/// cloned [`Counter`]/[`Histogram`] handles so recording never touches the
/// registry lock — the `RwLock` is only taken to register or snapshot.
///
/// [`PolarisEngine`]: https://docs.rs/polaris-core
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RwLock<RegistryInner>,
    /// Bumped on every registration/adoption. Samplers (the Harvester)
    /// cache cloned handle lists and re-index only when this changes, so
    /// steady-state ticks never clone names out of the registry.
    epoch: AtomicU64,
}

impl MetricsRegistry {
    /// A fresh, empty registry behind an `Arc` (the shape every consumer
    /// wants).
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry::default())
    }

    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self
            .inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .counters
            .get(name)
        {
            return c.clone();
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let handle = inner.counters.entry(name.to_owned()).or_default().clone();
        self.epoch.fetch_add(1, Ordering::Relaxed);
        handle
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self
            .inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .gauges
            .get(name)
        {
            return g.clone();
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let handle = inner.gauges.entry(name.to_owned()).or_default().clone();
        self.epoch.fetch_add(1, Ordering::Relaxed);
        handle
    }

    /// Get or create the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self
            .inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .histograms
            .get(name)
        {
            return h.clone();
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let handle = inner.histograms.entry(name.to_owned()).or_default().clone();
        self.epoch.fetch_add(1, Ordering::Relaxed);
        handle
    }

    /// Register an externally created counter handle under `name`,
    /// replacing any previous registration. This lets a component that
    /// pre-dates the registry (e.g. a shared `ComputePool`) keep its own
    /// handles while the engine's snapshots still see them.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        self.inner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .counters
            .insert(name.to_owned(), counter.clone());
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Register an externally created histogram handle under `name`.
    pub fn adopt_histogram(&self, name: &str, histogram: &Histogram) {
        self.inner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .histograms
            .insert(name.to_owned(), histogram.clone());
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The registration epoch (see the `epoch` field). Monotonic; changes
    /// whenever the set of registered metrics may have changed.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Cloned `(name, handle)` lists of everything registered, each list
    /// in name order. Allocates — samplers call this only when
    /// [`MetricsRegistry::epoch`] moved, then record through the cached
    /// handles.
    #[allow(clippy::type_complexity)]
    pub fn handles(
        &self,
    ) -> (
        Vec<(String, Counter)>,
        Vec<(String, Gauge)>,
        Vec<(String, Histogram)>,
    ) {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        (
            inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        )
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// Point-in-time copy of a [`MetricsRegistry`]: what `/metrics`
/// ([`encode_prometheus`]) and `polaris.metrics` render.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 if the metric was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Component meter bundles
// ---------------------------------------------------------------------------

/// Counters a [`SnapshotCache`](https://docs.rs/polaris-lst) records into.
/// `Default` gives free-standing (unregistered) counters so the cache works
/// without an engine; `from_registry` binds the canonical `lst.cache.*`
/// names.
#[derive(Clone, Debug, Default)]
pub struct CacheMeter {
    /// Snapshot resolved from a cached entry.
    pub hits: Counter,
    /// Snapshot required reconstruction.
    pub misses: Counter,
    /// Manifests replayed during reconstructions (sum of replay lengths).
    pub replayed_manifests: Counter,
    /// Trace handle; replay misses open `lst.cache.replay` spans on it.
    pub tracer: Tracer,
}

impl CacheMeter {
    /// Bind to the canonical `lst.cache.*` metric names in `registry`.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        CacheMeter {
            hits: registry.counter("lst.cache.hits"),
            misses: registry.counter("lst.cache.misses"),
            replayed_manifests: registry.counter("lst.cache.replayed_manifests"),
            tracer: Tracer::default(),
        }
    }
}

/// Counters and timers the MVCC catalog records into.
#[derive(Clone, Debug, Default)]
pub struct CatalogMeter {
    /// Transactions that committed.
    pub commits: Counter,
    /// Transactions explicitly aborted / rolled back.
    pub aborts: Counter,
    /// First-committer-wins write-write conflicts detected at commit.
    pub ww_conflicts: Counter,
    /// Serializable-mode read-set validation failures.
    pub serialization_failures: Counter,
    /// Wall time the commit lock was held, per commit that took it (from
    /// acquisition until release — the commit's critical section, prepare
    /// stage included). Commits with nothing to validate take no lock and
    /// record nothing.
    pub commit_lock_hold: Histogram,
    /// Group-commit batch sizes, one sample per sequencer batch. Samples
    /// are *counts*, not nanoseconds, so the exponential ns buckets are
    /// meaningless here — but `sum / count` is the exact mean batch size,
    /// which is the statistic batching tuning needs.
    pub group_batch_size: Histogram,
    /// Wall time a committer spends in the sequencer stage: from passing
    /// validation to its commit timestamp being published (includes group
    /// queue wait, the batch's commit-log write, install and publish).
    pub sequencer_wait: Histogram,
    /// Wall time committers spent *blocked acquiring* the commit lock
    /// (the wait profiler's view; `commit_lock_hold` is the hold side).
    pub commit_lock_wait: Histogram,
    /// Wall time group-commit followers spent parked on the group condvar
    /// waiting for their batch leader to publish.
    pub group_commit_wait: Histogram,
    /// Commit batches aborted because the durable commit-log hook failed;
    /// counted once per transaction in the failed batch.
    pub commit_log_failures: Counter,
    /// Trace handle; the commit protocol opens `catalog.*` spans on it.
    pub tracer: Tracer,
}

impl CatalogMeter {
    /// Bind to the canonical `catalog.*` metric names in `registry`.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        CatalogMeter {
            commits: registry.counter("catalog.commits"),
            aborts: registry.counter("catalog.aborts"),
            ww_conflicts: registry.counter("catalog.ww_conflicts"),
            serialization_failures: registry.counter("catalog.serialization_failures"),
            commit_lock_hold: registry.histogram("catalog.commit_lock_hold_ns"),
            commit_lock_wait: registry.histogram("catalog.commit_lock_wait_ns"),
            group_commit_wait: registry.histogram("catalog.group_commit.wait_ns"),
            group_batch_size: registry.histogram("catalog.group_commit.batch_size"),
            sequencer_wait: registry.histogram("catalog.sequencer_wait_ns"),
            commit_log_failures: registry.counter("catalog.commit_log_failures"),
            tracer: Tracer::default(),
        }
    }
}

/// Counters and timers the durability layer records into: commit-log
/// appends on the write side, checkpoint and replay work on the recovery
/// side. `Default` gives free-standing handles;
/// [`RecoveryMeter::from_registry`] binds the canonical `recovery.*` and
/// `wal.*` names so they surface in `/metrics` and `polaris.wal`.
#[derive(Clone, Debug, Default)]
pub struct RecoveryMeter {
    /// Sequencer batches appended to the durable commit log.
    pub wal_appends: Counter,
    /// Bytes of framed log records appended.
    pub wal_bytes: Counter,
    /// Log segments started (first append + every roll).
    pub wal_segments: Counter,
    /// Wall time of each log append (stage + commit-block-list).
    pub wal_append_ns: Histogram,
    /// Durable catalog checkpoints written.
    pub checkpoints: Counter,
    /// Log segments deleted because a checkpoint covers them.
    pub segments_pruned: Counter,
    /// Recoveries that loaded a checkpoint image.
    pub checkpoint_loads: Counter,
    /// Batches replayed from the log tail across all recoveries.
    pub replayed_batches: Counter,
    /// Commits replayed from the log tail across all recoveries.
    pub replayed_commits: Counter,
    /// Torn tail records discarded by the torn-tail rule.
    pub torn_records: Counter,
    /// Wall time of each full recovery (checkpoint + replay + import).
    pub recovery_ns: Histogram,
    /// Trace handle; recovery opens `recovery.*` spans on it.
    pub tracer: Tracer,
}

impl RecoveryMeter {
    /// Bind to the canonical `wal.*` / `recovery.*` metric names.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        RecoveryMeter {
            wal_appends: registry.counter("wal.appends"),
            wal_bytes: registry.counter("wal.bytes"),
            wal_segments: registry.counter("wal.segments"),
            wal_append_ns: registry.histogram("wal.append_ns"),
            checkpoints: registry.counter("wal.checkpoints"),
            segments_pruned: registry.counter("wal.segments_pruned"),
            checkpoint_loads: registry.counter("recovery.checkpoint_loads"),
            replayed_batches: registry.counter("recovery.replayed_batches"),
            replayed_commits: registry.counter("recovery.replayed_commits"),
            torn_records: registry.counter("recovery.torn_records"),
            recovery_ns: registry.histogram("recovery.wall_ns"),
            tracer: Tracer::default(),
        }
    }
}

/// The `sto.*` handles an STO tick records into. Resolved when the engine
/// is built, like every meter here: registering a name moves the registry
/// epoch, and the harvester re-indexes every metric when it moves.
#[derive(Clone, Debug, Default)]
pub struct StoMeter {
    /// Ticks run.
    pub ticks: Counter,
    /// lst checkpoints written.
    pub checkpoints: Counter,
    /// Compactions committed.
    pub compactions: Counter,
    /// Compactions that lost a write-write conflict.
    pub compaction_conflicts: Counter,
    /// Manifests published to the Delta log.
    pub published: Counter,
    /// Files garbage collection deleted.
    pub gc_deleted: Counter,
    /// Manifests the GC fold read.
    pub folded_manifests: Counter,
    /// Entries of the GC's per-table file-fate maps.
    pub gc_state_entries: Gauge,
    /// Wall time of each tick.
    pub tick_ns: Histogram,
}

impl StoMeter {
    /// Bind to the canonical `sto.*` metric names.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        StoMeter {
            ticks: registry.counter("sto.ticks"),
            checkpoints: registry.counter("sto.checkpoints"),
            compactions: registry.counter("sto.compactions"),
            compaction_conflicts: registry.counter("sto.compaction_conflicts"),
            published: registry.counter("sto.published"),
            gc_deleted: registry.counter("sto.gc_deleted"),
            folded_manifests: registry.counter("sto.gc_folded_manifests"),
            gc_state_entries: registry.gauge("sto.gc_state_entries"),
            tick_ns: registry.histogram("sto.tick_ns"),
        }
    }
}

/// Counters the compute pool records into on every task completion.
/// Replaces the old `Mutex<PoolStats>` (one lock acquisition per task) with
/// three relaxed atomic adds.
#[derive(Clone, Debug, Default)]
pub struct PoolMeter {
    /// Task executions, including retries.
    pub attempts: Counter,
    /// Re-executions after a failed attempt.
    pub retries: Counter,
    /// Attempts lost to simulated node failure.
    pub node_losses: Counter,
    /// Times a DAG scheduler parked because every slot of its workload
    /// class was held by other DAGs sharing the pool (woken by the next
    /// slot release — not a spin).
    pub slot_waits: Counter,
    /// How long those slot parks lasted (one sample per park).
    pub slot_wait_ns: Histogram,
    /// How long morsel lanes parked on the work-deque wake waiting for
    /// stealable morsels or shutdown.
    pub morsel_wake_wait_ns: Histogram,
}

impl PoolMeter {
    /// Bind to the canonical `dcp.*` metric names in `registry`.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        PoolMeter {
            attempts: registry.counter("dcp.task_attempts"),
            retries: registry.counter("dcp.task_retries"),
            node_losses: registry.counter("dcp.node_losses"),
            slot_waits: registry.counter("dcp.slot_waits"),
            slot_wait_ns: registry.histogram("dcp.slot_wait_ns"),
            morsel_wake_wait_ns: registry.histogram("dcp.morsel_wake_wait_ns"),
        }
    }

    /// Register this meter's existing handles into `registry` under the
    /// canonical names (for pools created before the engine's registry).
    pub fn adopt_into(&self, registry: &MetricsRegistry) {
        registry.adopt_counter("dcp.task_attempts", &self.attempts);
        registry.adopt_counter("dcp.task_retries", &self.retries);
        registry.adopt_counter("dcp.node_losses", &self.node_losses);
        registry.adopt_counter("dcp.slot_waits", &self.slot_waits);
        registry.adopt_histogram("dcp.slot_wait_ns", &self.slot_wait_ns);
        registry.adopt_histogram("dcp.morsel_wake_wait_ns", &self.morsel_wake_wait_ns);
    }
}

/// Per-statement scan accounting, bumped by BE scan tasks (`polaris-exec`)
/// while they run. Plain atomics: one instance is shared by all tasks of a
/// statement via `Arc`, then folded into the statement's [`QueryProfile`]
/// and the engine registry.
#[derive(Debug, Default)]
pub struct ScanMeter {
    /// Data files opened and scanned.
    pub files_scanned: AtomicU64,
    /// Data files skipped entirely (manifest column ranges or footer stats).
    pub files_pruned: AtomicU64,
    /// Row groups decoded.
    pub row_groups_scanned: AtomicU64,
    /// Row groups skipped by row-group zone maps.
    pub row_groups_pruned: AtomicU64,
    /// Rows entering the scan (decoded, before predicate).
    pub rows_in: AtomicU64,
    /// Rows surviving predicate + delete-vector masking.
    pub rows_out: AtomicU64,
    /// Payload bytes the scan *consumed* from the object store.
    ///
    /// Invariant: this counts footer tails, delete vectors, and the
    /// column-chunk payloads of row groups that **survive pruning** —
    /// nothing a pruned file or row group would have contributed. Both
    /// the eager (whole-blob) and lazy (range-read) scan paths maintain
    /// the same accounting, so their counts are directly comparable; the
    /// eager path's full-blob transfer is deliberately *not* charged
    /// here (it shows up in the store-level `store.*` op counters
    /// instead).
    pub bytes_read: AtomicU64,
    /// Morsels enqueued for execution (initial units plus adaptive
    /// splits; retries of the same morsel are not re-counted).
    pub morsels_scheduled: AtomicU64,
    /// Morsels executed on a lane other than the one they were queued on.
    pub morsels_stolen: AtomicU64,
    /// Column chunks never fetched because late materialization found no
    /// surviving rows after evaluating the predicate columns.
    pub late_materialized_chunks_skipped: AtomicU64,
    /// Trace handle; scan kernels open `exec.scan` / `exec.morsel` spans
    /// on it.
    pub tracer: Tracer,
}

impl ScanMeter {
    /// Fresh meter with all counts at zero.
    pub fn new() -> Self {
        ScanMeter::default()
    }

    /// Fresh meter recording `exec.scan` spans into `tracer`.
    pub fn with_tracer(tracer: Tracer) -> Self {
        ScanMeter {
            tracer,
            ..ScanMeter::default()
        }
    }

    /// Convenience: `fetch_add` with relaxed ordering.
    #[inline]
    pub fn bump(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed load of a field.
    #[inline]
    pub fn read(field: &AtomicU64) -> u64 {
        field.load(Ordering::Relaxed)
    }

    /// Every count, index-aligned with [`SCAN_COUNTER_NAMES`].
    fn counts(&self) -> [&AtomicU64; SCAN_COUNTERS] {
        [
            &self.files_scanned,
            &self.files_pruned,
            &self.row_groups_scanned,
            &self.row_groups_pruned,
            &self.rows_in,
            &self.rows_out,
            &self.bytes_read,
            &self.morsels_scheduled,
            &self.morsels_stolen,
            &self.late_materialized_chunks_skipped,
        ]
    }

    /// The engine-wide `exec.*` counters this meter folds into, resolved
    /// once so a statement's fold takes no registry lock.
    pub fn registry_counters(registry: &MetricsRegistry) -> [Counter; SCAN_COUNTERS] {
        SCAN_COUNTER_NAMES.map(|name| registry.counter(name))
    }

    /// Add this meter's counts to the [`ScanMeter::registry_counters`].
    pub fn fold_into(&self, counters: &[Counter; SCAN_COUNTERS]) {
        for (count, counter) in self.counts().into_iter().zip(counters) {
            counter.add(count.load(Ordering::Relaxed));
        }
    }

    /// Zero every counter in place, keeping the tracer handle — pooled
    /// meters reset between statements instead of reallocating.
    pub fn reset(&self) {
        for count in self.counts() {
            count.store(0, Ordering::Relaxed);
        }
    }
}

/// Number of counts a [`ScanMeter`] keeps.
pub const SCAN_COUNTERS: usize = 10;

/// The `exec.*` registry name of each [`ScanMeter`] count.
const SCAN_COUNTER_NAMES: [&str; SCAN_COUNTERS] = [
    "exec.files_scanned",
    "exec.files_pruned",
    "exec.row_groups_scanned",
    "exec.row_groups_pruned",
    "exec.rows_in",
    "exec.rows_out",
    "exec.bytes_read",
    "exec.morsels_scheduled",
    "exec.morsels_stolen",
    "exec.late_materialized_chunks_skipped",
];

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// How a statement's / transaction's optimistic validation ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidationOutcome {
    /// Not validated yet (statement ran inside a still-open transaction).
    #[default]
    Pending,
    /// Read-only: nothing to validate.
    ReadOnly,
    /// Validation passed and the transaction committed.
    Committed,
    /// First-committer-wins write-write conflict; transaction aborted.
    WwConflict,
    /// Serializable read-set validation failed; transaction aborted.
    SerializationFailure,
    /// Explicitly rolled back before validation.
    RolledBack,
}

/// Structured accounting for one executed statement, returned by
/// `Session::last_profile()` and kept by the [`SlowLog`].
#[derive(Clone, Debug, Default)]
pub struct QueryProfile {
    /// Statement kind (`select`, `insert`, `update`, `delete`, …).
    pub statement: String,
    /// Data files opened and scanned.
    pub files_scanned: u64,
    /// Data files pruned via manifest / footer statistics.
    pub files_pruned: u64,
    /// Row groups decoded.
    pub row_groups_scanned: u64,
    /// Row groups pruned via zone maps.
    pub row_groups_pruned: u64,
    /// Rows decoded before predicates.
    pub rows_in: u64,
    /// Rows produced: the result rows of a SELECT, the rows written or
    /// deleted by DML.
    pub rows_out: u64,
    /// Payload bytes fetched from the object store by scans.
    pub bytes_read: u64,
    /// Scan morsels enqueued (initial units plus adaptive splits).
    pub morsels_scheduled: u64,
    /// Scan morsels executed on a lane other than their home lane.
    pub morsels_stolen: u64,
    /// Column chunks skipped by late materialization.
    pub late_materialized_chunks_skipped: u64,
    /// Snapshot-cache hits while resolving this statement's snapshots.
    pub cache_hits: u64,
    /// Snapshot-cache misses (reconstructions) for this statement.
    pub cache_misses: u64,
    /// Manifest blocks staged by BE write tasks.
    pub blocks_staged: u64,
    /// Manifest blocks committed by the FE.
    pub blocks_committed: u64,
    /// DCP task attempts executed for this statement.
    pub task_attempts: u64,
    /// DCP task retries (attempts beyond the first per task).
    pub task_retries: u64,
    /// Validation outcome (auto-commit statements resolve at commit;
    /// statements inside an explicit transaction stay [`Pending`]).
    ///
    /// [`Pending`]: ValidationOutcome::Pending
    pub validation: ValidationOutcome,
    /// What each [`Phase`] accrued engine-wide while the statement (and
    /// the commit it triggered) ran: heap bytes and allocations
    /// (tracking-allocator builds only; 0 otherwise) and lock/condvar
    /// waits. Deltas of the global phase counters, so — like the cache
    /// columns above — approximate under concurrent sessions.
    pub phases: [PhaseTotals; PHASE_COUNT],
    /// Total wall time of the statement in nanoseconds, the commit it
    /// triggered included.
    pub wall_ns: u64,
    /// The part of `wall_ns` spent in the commit protocol (0 until the
    /// transaction commits); the rest is execution.
    pub commit_ns: u64,
    /// Trace span id of this statement's root span (0 when tracing is
    /// disabled); `EXPLAIN ANALYZE` renders the tree rooted here.
    pub trace_span: u64,
    /// Engine-wide stable statement id, assigned at execution start.
    /// Stamped on the root trace span and on slow-log entries, so
    /// `polaris.slow_log` rows join to `polaris.trace_spans`.
    pub query_id: u64,
}

impl QueryProfile {
    /// Fold a statement-scoped [`ScanMeter`] into this profile.
    pub fn absorb_scan(&mut self, meter: &ScanMeter) {
        let r = |f: &AtomicU64| f.load(Ordering::Relaxed);
        self.files_scanned += r(&meter.files_scanned);
        self.files_pruned += r(&meter.files_pruned);
        self.row_groups_scanned += r(&meter.row_groups_scanned);
        self.row_groups_pruned += r(&meter.row_groups_pruned);
        self.rows_in += r(&meter.rows_in);
        self.bytes_read += r(&meter.bytes_read);
        self.morsels_scheduled += r(&meter.morsels_scheduled);
        self.morsels_stolen += r(&meter.morsels_stolen);
        self.late_materialized_chunks_skipped += r(&meter.late_materialized_chunks_skipped);
    }

    /// All phases summed: the statement's allocations and waits.
    pub fn totals(&self) -> PhaseTotals {
        self.phases.iter().copied().sum()
    }
}

/// Accounting for one whole transaction, populated at commit / rollback.
#[derive(Clone, Debug, Default)]
pub struct TxnProfile {
    /// Statements executed inside the transaction.
    pub statements: u32,
    /// Manifest blocks staged across all statements.
    pub blocks_staged: u64,
    /// Manifest blocks committed at transaction commit.
    pub blocks_committed: u64,
    /// Tables written by the transaction.
    pub tables_written: u64,
    /// How validation ended.
    pub validation: ValidationOutcome,
    /// Wall time of the commit protocol itself (validate + publish), ns.
    pub commit_wall_ns: u64,
    /// What each [`Phase`] accrued engine-wide during the commit protocol
    /// (approximate under concurrent committers).
    pub commit_phases: [PhaseTotals; PHASE_COUNT],
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_are_shared_by_handle() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.events");
        let b = reg.counter("x.events");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x.events").get(), 3);
    }

    #[test]
    fn adopt_counter_makes_existing_handle_visible() {
        let reg = MetricsRegistry::new();
        let mine = Counter::new();
        mine.add(7);
        reg.adopt_counter("pool.attempts", &mine);
        mine.inc();
        assert_eq!(reg.snapshot().counter("pool.attempts"), 8);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(999), 0);
        assert_eq!(Histogram::bucket_index(1_000), 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for _ in 0..99 {
            h.record_ns(500); // < 1µs
        }
        h.record_ns(5_000_000_000); // 5s outlier
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50_ns, 1_000);
        assert!(snap.p99_ns >= 1_000);
        assert!(snap.sum_ns > 5_000_000_000);
    }

    #[test]
    fn span_records_on_drop() {
        let reg = MetricsRegistry::new();
        {
            let _s = reg.histogram("phase.commit_ns").span();
        }
        assert_eq!(reg.histogram("phase.commit_ns").count(), 1);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c.hot");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn scan_meter_folds_into_profile_and_registry() {
        let m = ScanMeter::new();
        ScanMeter::bump(&m.files_scanned, 4);
        ScanMeter::bump(&m.files_pruned, 6);
        ScanMeter::bump(&m.bytes_read, 4096);
        let mut p = QueryProfile {
            statement: "select".into(),
            ..QueryProfile::default()
        };
        p.absorb_scan(&m);
        assert_eq!(p.files_pruned, 6);
        assert_eq!(p.bytes_read, 4096);
        let reg = MetricsRegistry::new();
        m.fold_into(&ScanMeter::registry_counters(&reg));
        assert_eq!(reg.snapshot().counter("exec.files_pruned"), 6);
        assert_eq!(reg.snapshot().counter("exec.bytes_read"), 4096);
    }
}
