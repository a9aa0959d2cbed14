//! Continuous time-series harvesting over a [`MetricsRegistry`].
//!
//! `metrics_snapshot()` is pull-on-demand: it tells you *where the engine
//! is*, never *how fast it is moving* or *whether it has stopped*. The
//! [`Harvester`] closes that gap — a background thread samples the
//! registry on a fixed tick and folds each sample into bounded per-metric
//! rings:
//!
//! * **counters** become derived rates (delta / tick seconds),
//! * **gauges** are sampled as-is,
//! * **histograms** keep per-tick delta quantiles: the bucket counts that
//!   arrived *during the tick* run through
//!   [`quantile_from_counts`](crate::quantile_from_counts), so a
//!   latency regression shows up in the tick it happens instead of being
//!   averaged into the lifetime distribution.
//!
//! The rings are fixed-size (`window` ticks), so memory is bounded no
//! matter how long the engine runs. [`Harvester::time_series`] copies them
//! out as a [`TimeSeriesSnapshot`]; the owner's [`Harvester::on_tick`] hook
//! runs first in every tick — refreshing probe gauges and evaluating its
//! [`Watchdog`](crate::health::Watchdog) — so stall rules observe exactly
//! the cadence the rings record and the rings sample what the hook set.
//!
//! # Zero allocation at steady state
//!
//! Sampling must itself pass the allocation gate: an idle engine whose
//! only activity is the harvester should allocate nothing per tick. The
//! sampler therefore never calls [`MetricsRegistry::snapshot`] (which
//! clones every metric name). It caches cloned handle cells per metric
//! and re-indexes only when [`MetricsRegistry::epoch`] moves (a new
//! metric was registered); steady-state ticks read through the cached
//! handles into pre-sized rings and stack-array histogram deltas. The
//! tick also syncs the [`crate::alloc`] attribution counters and samples
//! process RSS (`process.resident_bytes`), both allocation-free, under a
//! `telemetry` [`crate::PhaseScope`] so any residual churn is attributed
//! to the telemetry plane itself.

use crate::alloc::{AllocMetrics, Phase, PhaseScope};
use crate::{quantile_from_counts, Counter, Gauge, Histogram, MetricsRegistry, HIST_BUCKETS};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One sampled point of a rate or gauge series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TsPoint {
    /// Milliseconds since the harvester started.
    pub t_ms: u64,
    /// Counter rate (events/second over the tick) or gauge level.
    pub value: f64,
}

/// One per-tick quantile sample of a histogram series. Quantiles are
/// computed over the samples that arrived during this tick only.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuantilePoint {
    /// Milliseconds since the harvester started.
    pub t_ms: u64,
    /// Samples recorded during this tick.
    pub count: u64,
    /// Approximate median of this tick's samples, ns.
    pub p50_ns: u64,
    /// Approximate 95th percentile of this tick's samples, ns.
    pub p95_ns: u64,
    /// Approximate 99th percentile of this tick's samples, ns.
    pub p99_ns: u64,
}

/// Point-in-time copy of every time-series ring, the continuous
/// counterpart of [`crate::MetricsSnapshot`] (`polaris.metrics_history`
/// serves it). Keys are registry metric names.
#[derive(Clone, Debug, Default)]
pub struct TimeSeriesSnapshot {
    /// Wall-clock time the harvester started, milliseconds since the Unix
    /// epoch. Adding a point's `t_ms` yields its absolute capture time, so
    /// ring samples line up with slow-log wall-clock timestamps.
    pub wall_start_ms: u64,
    /// Counter rates (events/second per tick), newest last.
    pub rates: BTreeMap<String, Vec<TsPoint>>,
    /// Gauge levels per tick, newest last.
    pub gauges: BTreeMap<String, Vec<TsPoint>>,
    /// Histogram per-tick delta quantiles, newest last.
    pub quantiles: BTreeMap<String, Vec<QuantilePoint>>,
}

fn push_bounded<T>(ring: &mut VecDeque<T>, window: usize, point: T) {
    if ring.len() == window {
        ring.pop_front();
    }
    ring.push_back(point);
}

struct CounterCell {
    name: String,
    handle: Counter,
    prev: u64,
    ring: VecDeque<TsPoint>,
}

struct GaugeCell {
    name: String,
    handle: Gauge,
    ring: VecDeque<TsPoint>,
}

struct HistCell {
    name: String,
    handle: Histogram,
    prev: [u64; HIST_BUCKETS],
    ring: VecDeque<QuantilePoint>,
}

/// Cached per-metric sampling cells. `epoch` is the registry epoch the
/// cells were indexed at; a moved epoch triggers [`Rings::reindex`]
/// (which allocates — once per registration, not per tick).
#[derive(Default)]
struct Rings {
    epoch: u64,
    indexed: bool,
    counters: Vec<CounterCell>,
    gauges: Vec<GaugeCell>,
    hists: Vec<HistCell>,
}

impl Rings {
    /// Rebuild the cell lists from the registry, preserving the ring and
    /// delta state of metrics that were already indexed.
    fn reindex(&mut self, registry: &MetricsRegistry, epoch: u64, window: usize) {
        let (counters, gauges, hists) = registry.handles();
        let mut old: BTreeMap<String, CounterCell> = self
            .counters
            .drain(..)
            .map(|c| (c.name.clone(), c))
            .collect();
        self.counters = counters
            .into_iter()
            .map(|(name, handle)| match old.remove(&name) {
                Some(mut cell) => {
                    cell.handle = handle;
                    cell
                }
                None => CounterCell {
                    name,
                    handle,
                    prev: 0,
                    ring: VecDeque::with_capacity(window),
                },
            })
            .collect();
        let mut old: BTreeMap<String, GaugeCell> =
            self.gauges.drain(..).map(|c| (c.name.clone(), c)).collect();
        self.gauges = gauges
            .into_iter()
            .map(|(name, handle)| match old.remove(&name) {
                Some(mut cell) => {
                    cell.handle = handle;
                    cell
                }
                None => GaugeCell {
                    name,
                    handle,
                    ring: VecDeque::with_capacity(window),
                },
            })
            .collect();
        let mut old: BTreeMap<String, HistCell> =
            self.hists.drain(..).map(|c| (c.name.clone(), c)).collect();
        self.hists = hists
            .into_iter()
            .map(|(name, handle)| match old.remove(&name) {
                Some(mut cell) => {
                    cell.handle = handle;
                    cell
                }
                None => HistCell {
                    name,
                    handle,
                    prev: [0; HIST_BUCKETS],
                    ring: VecDeque::with_capacity(window),
                },
            })
            .collect();
        self.epoch = epoch;
        self.indexed = true;
    }
}

struct HarvesterShared {
    registry: Arc<MetricsRegistry>,
    /// Pre-registered alloc/RSS attribution handles, synced every tick.
    alloc_metrics: AllocMetrics,
    rings: Mutex<Rings>,
    on_tick: OnceLock<Box<dyn Fn(u64) + Send + Sync>>,
    ticks: AtomicU64,
    tick: Duration,
    window: usize,
    started: Instant,
    /// Unix-epoch milliseconds captured at the same moment as `started`,
    /// so `started.elapsed()` offsets convert to absolute wall-clock time
    /// without calling the (allocating, non-monotonic) clock per tick.
    started_unix_ms: u64,
    stop: AtomicBool,
}

/// Background sampler: one named thread (`polaris-harvester`) snapshots
/// the registry every `tick` and maintains `window`-sized rings per
/// metric. Dropping (or [`Harvester::stop`]) joins the thread.
///
/// Deterministic tests and single-shot tools can skip the thread entirely:
/// [`Harvester::detached`] plus explicit [`Harvester::run_once`] calls
/// advance the rings without any timing dependence.
pub struct Harvester {
    shared: Arc<HarvesterShared>,
    handle: Option<JoinHandle<()>>,
}

impl Harvester {
    /// A harvester with no background thread; call
    /// [`Harvester::run_once`] to advance it manually.
    pub fn detached(registry: Arc<MetricsRegistry>, tick: Duration, window: usize) -> Self {
        let alloc_metrics = AllocMetrics::register(&registry);
        let started_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Harvester {
            shared: Arc::new(HarvesterShared {
                registry,
                alloc_metrics,
                rings: Mutex::new(Rings::default()),
                on_tick: OnceLock::new(),
                ticks: AtomicU64::new(0),
                tick,
                window: window.max(1),
                started: Instant::now(),
                started_unix_ms,
                stop: AtomicBool::new(false),
            }),
            handle: None,
        }
    }

    /// Start the background sampling thread.
    pub fn start(registry: Arc<MetricsRegistry>, tick: Duration, window: usize) -> Self {
        let mut h = Harvester::detached(registry, tick, window);
        let shared = Arc::clone(&h.shared);
        let handle = std::thread::Builder::new()
            .name("polaris-harvester".into())
            .spawn(move || {
                while !shared.stop.load(Ordering::Relaxed) {
                    HarvesterShared::run_once(&shared);
                    // `stop` unparks: dropping the owner never waits out
                    // a tick.
                    std::thread::park_timeout(shared.tick);
                }
            })
            .expect("spawn polaris-harvester thread");
        h.handle = Some(handle);
        h
    }

    /// Install the owner's per-tick hook (the first call wins). It runs
    /// with the tick number at the start of every tick, manual
    /// [`Harvester::run_once`] calls included, before the rings sample.
    pub fn on_tick(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        let _ = self.shared.on_tick.set(Box::new(hook));
    }

    /// Run exactly one tick synchronously on the calling thread.
    pub fn run_once(&self) {
        HarvesterShared::run_once(&self.shared);
    }

    /// Ticks started so far.
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// Copy every ring out.
    pub fn time_series(&self) -> TimeSeriesSnapshot {
        let rings = self.shared.rings.lock().unwrap_or_else(|e| e.into_inner());
        TimeSeriesSnapshot {
            wall_start_ms: self.shared.started_unix_ms,
            rates: rings
                .counters
                .iter()
                .map(|c| (c.name.clone(), c.ring.iter().cloned().collect()))
                .collect(),
            gauges: rings
                .gauges
                .iter()
                .map(|c| (c.name.clone(), c.ring.iter().cloned().collect()))
                .collect(),
            quantiles: rings
                .hists
                .iter()
                .map(|c| (c.name.clone(), c.ring.iter().cloned().collect()))
                .collect(),
        }
    }

    /// Stop and join the background thread (idempotent).
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            crate::join_unless_current(handle);
        }
    }
}

impl Drop for Harvester {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Harvester {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harvester")
            .field("tick", &self.shared.tick)
            .field("window", &self.shared.window)
            .field("ticks", &self.ticks())
            .field("threaded", &self.handle.is_some())
            .finish()
    }
}

impl HarvesterShared {
    fn run_once(shared: &Arc<HarvesterShared>) {
        // Attribute the harvester's own (ideally zero) churn to the
        // telemetry phase so it can't masquerade as engine work.
        let _scope = PhaseScope::enter(Phase::Telemetry);
        shared.alloc_metrics.sync();
        let tick = shared.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(hook) = shared.on_tick.get() {
            hook(tick);
        }
        let t_ms = shared.started.elapsed().as_millis() as u64;
        // Rates divide by the *configured* tick so manual run_once calls in
        // tests produce deterministic values; the sampling jitter of the
        // real thread is well under a tick.
        let secs = shared.tick.as_secs_f64().max(1e-9);
        {
            let mut rings = shared.rings.lock().unwrap_or_else(|e| e.into_inner());
            let epoch = shared.registry.epoch();
            if !rings.indexed || rings.epoch != epoch {
                rings.reindex(&shared.registry, epoch, shared.window);
            }
            let window = shared.window;
            for cell in &mut rings.counters {
                let value = cell.handle.get();
                let rate = value.saturating_sub(cell.prev) as f64 / secs;
                cell.prev = value;
                push_bounded(&mut cell.ring, window, TsPoint { t_ms, value: rate });
            }
            for cell in &mut rings.gauges {
                push_bounded(
                    &mut cell.ring,
                    window,
                    TsPoint {
                        t_ms,
                        value: cell.handle.get() as f64,
                    },
                );
            }
            let mut now = [0u64; HIST_BUCKETS];
            let mut delta = [0u64; HIST_BUCKETS];
            for cell in &mut rings.hists {
                cell.handle.bucket_counts_into(&mut now);
                for (d, (n, p)) in delta.iter_mut().zip(now.iter().zip(cell.prev.iter())) {
                    *d = n.saturating_sub(*p);
                }
                cell.prev = now;
                let count: u64 = delta.iter().sum();
                push_bounded(
                    &mut cell.ring,
                    window,
                    QuantilePoint {
                        t_ms,
                        count,
                        p50_ns: quantile_from_counts(&delta, 0.50),
                        p95_ns: quantile_from_counts(&delta, 0.95),
                        p99_ns: quantile_from_counts(&delta, 0.99),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rates_are_per_tick_deltas() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("catalog.commits");
        let h = Harvester::detached(Arc::clone(&reg), Duration::from_millis(100), 8);
        c.add(5);
        h.run_once(); // first tick: delta from 0 -> 5 over 0.1s = 50/s
        c.add(10);
        h.run_once(); // second tick: delta 10 -> 100/s
        let ts = h.time_series();
        let rates = &ts.rates["catalog.commits"];
        assert_eq!(rates.len(), 2);
        assert!((rates[0].value - 50.0).abs() < 1e-9);
        assert!((rates[1].value - 100.0).abs() < 1e-9);
        assert_eq!(h.ticks(), 2);
    }

    #[test]
    fn histogram_quantiles_are_delta_not_lifetime() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("catalog.commit_lock_hold_ns");
        let harv = Harvester::detached(Arc::clone(&reg), Duration::from_millis(50), 8);
        for _ in 0..100 {
            h.record_ns(500); // sub-µs tick 1
        }
        harv.run_once();
        for _ in 0..10 {
            h.record_ns(2_000_000); // ~2ms tick 2
        }
        harv.run_once();
        let ts = harv.time_series();
        let q = &ts.quantiles["catalog.commit_lock_hold_ns"];
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].count, 100);
        assert_eq!(q[0].p99_ns, 1_000);
        // tick 2's p50 reflects only the slow samples, not the lifetime mix
        assert_eq!(q[1].count, 10);
        assert!(q[1].p50_ns >= 2_000_000);
    }

    #[test]
    fn rings_are_bounded_by_window() {
        let reg = MetricsRegistry::new();
        reg.counter("x.events").inc();
        reg.gauge("x.level").set(1);
        let h = Harvester::detached(Arc::clone(&reg), Duration::from_millis(10), 3);
        for _ in 0..10 {
            h.run_once();
        }
        let ts = h.time_series();
        assert_eq!(ts.rates["x.events"].len(), 3);
        assert_eq!(ts.gauges["x.level"].len(), 3);
        assert_eq!(h.ticks(), 10);
    }

    #[test]
    fn late_registered_metrics_get_indexed() {
        let reg = MetricsRegistry::new();
        reg.counter("a.early").inc();
        let h = Harvester::detached(Arc::clone(&reg), Duration::from_millis(10), 8);
        h.run_once();
        reg.counter("b.late").inc();
        h.run_once();
        let ts = h.time_series();
        assert_eq!(ts.rates["a.early"].len(), 2);
        assert_eq!(ts.rates["b.late"].len(), 1, "late metric missed reindex");
    }

    #[test]
    fn harvester_publishes_alloc_and_rss_series() {
        let reg = MetricsRegistry::new();
        let h = Harvester::detached(Arc::clone(&reg), Duration::from_millis(10), 8);
        h.run_once();
        let ts = h.time_series();
        assert!(ts.gauges.contains_key("process.resident_bytes"));
        assert!(ts.gauges.contains_key("alloc.live_bytes"));
        let key = crate::alloc::phase_metric_key("alloc.bytes", crate::Phase::Telemetry);
        assert!(ts.rates.contains_key(&key), "missing {key}");
    }

    /// The telemetry plane must pass its own gate: once the cell index and
    /// rings are warm, a tick performs zero heap allocations.
    #[cfg(feature = "track-alloc")]
    #[test]
    fn steady_state_tick_does_not_allocate() {
        let reg = MetricsRegistry::new();
        reg.counter("x.events").add(3);
        reg.gauge("x.depth").set(2);
        reg.histogram("x.lat_ns").record_ns(1_234);
        let h = Harvester::detached(Arc::clone(&reg), Duration::from_millis(10), 4);
        for _ in 0..8 {
            h.run_once(); // warm: index cells, fill rings to the window
        }
        let (allocs0, _) = crate::alloc::thread_counts();
        for _ in 0..16 {
            h.run_once();
        }
        let (allocs1, _) = crate::alloc::thread_counts();
        assert_eq!(allocs1 - allocs0, 0, "harvester tick allocated");
    }

    #[test]
    fn threaded_harvester_ticks_and_stops() {
        let reg = MetricsRegistry::new();
        reg.counter("x.events").add(3);
        let mut h = Harvester::start(Arc::clone(&reg), Duration::from_millis(5), 16);
        let deadline = Instant::now() + Duration::from_secs(5);
        while h.ticks() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(h.ticks() >= 3, "harvester thread never ticked");
        h.stop();
        let after = h.ticks();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(h.ticks(), after, "ticks advanced after stop");
    }

    #[test]
    fn stop_does_not_wait_out_the_tick() {
        let mut h = Harvester::start(MetricsRegistry::new(), Duration::from_secs(10), 4);
        let begun = Instant::now();
        h.stop();
        assert!(begun.elapsed() < Duration::from_millis(100));
    }

    /// An engine rule that holds the last reference to the harvester's
    /// owner drops the harvester on `polaris-harvester` itself: `stop`
    /// must not join its own thread (std panics with EDEADLK).
    #[test]
    fn dropping_the_harvester_from_its_own_hook_does_not_panic() {
        let h = Harvester::start(MetricsRegistry::new(), Duration::from_millis(1), 4);
        let slot = Arc::new(Mutex::new(None));
        let (dropped_tx, dropped_rx) = std::sync::mpsc::channel();
        let in_hook = Arc::clone(&slot);
        h.on_tick(move |_| {
            if let Some(harvester) = in_hook.lock().unwrap().take() {
                drop::<Harvester>(harvester);
                dropped_tx
                    .send(std::thread::current().name().map(str::to_owned))
                    .unwrap();
            }
        });
        *slot.lock().unwrap() = Some(h);
        let on = dropped_rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(on.unwrap().as_deref(), Some("polaris-harvester"));
    }
}
