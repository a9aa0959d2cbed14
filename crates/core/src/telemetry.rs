//! Continuous-telemetry wiring: harvester thread, stall watchdog rules,
//! the HTTP exposition endpoint and the engine health report.
//!
//! The obs crate provides the mechanisms ([`Harvester`], [`Watchdog`],
//! [`SlowLog`], [`TelemetryServer`]); this module binds them to a running
//! [`PolarisEngine`]: which registry to sample, which stall rules to
//! evaluate against which probes, and what `/health` should say. Rules
//! hold `Weak` engine references (the engine owns its telemetry, so an
//! `Arc` here would be a cycle) or cloned lock-free metric handles, which
//! need no engine at all.
//!
//! Five stall rules ship by default, all edge-triggered (one
//! [`HealthEvent`] per episode):
//!
//! | rule | fires when |
//! |------|------------|
//! | `gc-watermark` | the oldest active transaction exceeds `watchdog_txn_deadline_ms`, pinning vacuum + snapshot retention |
//! | `group-commit-stall` | the group-commit queue stays non-empty for `watchdog_queue_stall_ticks` consecutive ticks |
//! | `commit-lock-hold` | any commit shard's per-tick p99 lock hold exceeds 1 s |
//! | `sto-stalled` | `sto.ticks` stops advancing for a deadline's worth of harvester ticks after the STO has started |
//! | `alloc-rate-spike` | the tracking allocator's per-tick allocation rate exceeds 1 GiB/s (tracking builds only) |
//!
//! Rule closures evaluate once per harvester tick and must not allocate
//! at steady state (the allocation gate runs the harvester): state is
//! pre-sized at install time and reused across ticks.

use crate::PolarisEngine;
use polaris_dcp::WorkloadClass;
use polaris_obs::{
    quantile_from_counts, Harvester, HealthEvent, HealthFn, SlowRecord, TelemetryServer, Watchdog,
};
use serde::Serialize;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Health events retained by the engine watchdog.
const EVENT_CAPACITY: usize = 64;

/// Time-series ring length per metric, in ticks.
const TELEMETRY_WINDOW: usize = 120;

/// `commit-lock-hold` fires on a per-tick p99 commit-shard lock hold above
/// this.
const WATCHDOG_LOCK_HOLD_MS: u64 = 1_000;

/// `alloc-rate-spike` fires on an engine-wide allocation rate above this.
const WATCHDOG_ALLOC_BYTES_PER_SEC: u64 = 1 << 30;

/// Slow records retained by the engine slow log.
pub(crate) const SLOW_LOG_CAPACITY: usize = 128;

/// The engine's continuous-telemetry runtime: harvester (threaded when
/// `telemetry_tick_ms > 0`, manual otherwise), watchdog, and the optional
/// HTTP endpoint.
pub(crate) struct EngineTelemetry {
    pub(crate) harvester: Harvester,
    pub(crate) watchdog: Arc<Watchdog>,
    pub(crate) server: Option<TelemetryServer>,
}

/// Build and start telemetry for a freshly constructed engine. Called
/// once from `PolarisEngine::new` after the `Arc` exists (the rules and
/// the `/health` endpoint hold `Weak` references).
pub(crate) fn start(engine: &Arc<PolarisEngine>) -> EngineTelemetry {
    let config = *engine.config();
    let watchdog = Arc::new(Watchdog::new(engine.tracer().clone(), EVENT_CAPACITY));
    install_rules(engine, &watchdog);

    let tick = Duration::from_millis(config.telemetry_tick_ms.max(1));
    let harvester = if config.telemetry_tick_ms > 0 {
        Harvester::start(Arc::clone(engine.metrics()), tick, TELEMETRY_WINDOW)
    } else {
        // No background thread; `PolarisEngine::telemetry_tick_once`
        // advances deterministically (tests, single-shot tools).
        Harvester::detached(Arc::clone(engine.metrics()), tick, TELEMETRY_WINDOW)
    };
    harvester.attach_watchdog(Arc::clone(&watchdog));

    let server = config.telemetry_listen.and_then(|addr| {
        let weak = Arc::downgrade(engine);
        let health: HealthFn = Arc::new(move || match weak.upgrade() {
            Some(engine) => engine.health_report().to_json_pretty(),
            None => "{\"status\":\"shutting down\"}".to_owned(),
        });
        match TelemetryServer::start(addr, Arc::clone(engine.metrics()), health) {
            Ok(server) => Some(server),
            Err(_) => {
                // An unusable endpoint must not take the engine down;
                // surface it as a counter instead.
                engine
                    .metrics()
                    .counter("obs.telemetry_bind_failures")
                    .inc();
                None
            }
        }
    });

    EngineTelemetry {
        harvester,
        watchdog,
        server,
    }
}

/// Register the five standard stall rules plus the uptime-gauge refresh.
fn install_rules(engine: &Arc<PolarisEngine>, watchdog: &Watchdog) {
    let config = *engine.config();

    // Not a stall rule: refresh the wall-clock `uptime_seconds` gauge on
    // the shared harvester tick so `/metrics` scrapes stay current without
    // an extra thread. One relaxed gauge store per tick, never fires.
    let uptime = engine.metrics().gauge("uptime_seconds");
    let started = engine.started_instant();
    watchdog.add_rule("uptime-refresh", move |_tick| {
        uptime.set(started.elapsed().as_secs() as i64);
        None
    });

    // Oldest active transaction pinning the GC watermark.
    let weak: Weak<PolarisEngine> = Arc::downgrade(engine);
    let deadline = Duration::from_millis(config.watchdog_txn_deadline_ms.max(1));
    watchdog.add_rule("gc-watermark", move |_tick| {
        let engine = weak.upgrade()?;
        let (id, age) = engine.catalog().oldest_active()?;
        (age > deadline).then(|| {
            format!(
                "txn {} active for {}ms (deadline {}ms) — pinning the GC watermark",
                id.0,
                age.as_millis(),
                deadline.as_millis()
            )
        })
    });

    // Group-commit queue occupancy not draining.
    let weak: Weak<PolarisEngine> = Arc::downgrade(engine);
    let need = config.watchdog_queue_stall_ticks.max(1);
    let mut stuck = 0u64;
    watchdog.add_rule("group-commit-stall", move |_tick| {
        let engine = weak.upgrade()?;
        let depth = engine.catalog().group_queue_depth();
        if depth == 0 {
            stuck = 0;
            return None;
        }
        stuck += 1;
        (stuck >= need)
            .then(|| format!("group-commit queue depth {depth} not draining for {stuck} ticks"))
    });

    // Per-tick p99 shard lock hold above threshold. Cloned histogram
    // handles — no engine reference needed. Bucket state is pre-sized
    // here and reused so a quiet tick allocates nothing.
    let holds = engine.catalog().meter().commit_shard_holds.clone();
    let threshold_ns = WATCHDOG_LOCK_HOLD_MS * 1_000_000;
    let mut prev: Vec<[u64; polaris_obs::HIST_BUCKETS]> =
        vec![[0u64; polaris_obs::HIST_BUCKETS]; holds.len()];
    for (i, hold) in holds.iter().enumerate() {
        hold.bucket_counts_into(&mut prev[i]);
    }
    watchdog.add_rule("commit-lock-hold", move |_tick| {
        let mut worst: Option<(usize, u64)> = None;
        let mut now = [0u64; polaris_obs::HIST_BUCKETS];
        let mut delta = [0u64; polaris_obs::HIST_BUCKETS];
        for (i, hold) in holds.iter().enumerate() {
            hold.bucket_counts_into(&mut now);
            let mut total = 0u64;
            for (j, (n, p)) in now.iter().zip(prev[i].iter()).enumerate() {
                delta[j] = n.saturating_sub(*p);
                total += delta[j];
            }
            prev[i] = now;
            if total == 0 {
                continue;
            }
            let p99 = quantile_from_counts(&delta, 0.99);
            if p99 > threshold_ns && worst.map(|(_, w)| p99 > w).unwrap_or(true) {
                worst = Some((i, p99));
            }
        }
        worst.map(|(shard, p99)| {
            format!(
                "commit shard {shard} lock-hold p99 {:.1}ms this tick (threshold {}ms)",
                p99 as f64 / 1e6,
                threshold_ns / 1_000_000
            )
        })
    });

    // Engine-wide allocation-rate spike (tracking-allocator builds only;
    // the totals read 0 otherwise and the rule stays silent). Plain u64
    // state — nothing allocated per tick.
    let tick_secs = (config.telemetry_tick_ms.max(1) as f64) / 1e3;
    let mut prev_bytes = polaris_obs::alloc::totals().alloc_bytes;
    watchdog.add_rule("alloc-rate-spike", move |_tick| {
        let now = polaris_obs::alloc::totals().alloc_bytes;
        let delta = now.saturating_sub(prev_bytes);
        prev_bytes = now;
        let rate = (delta as f64 / tick_secs) as u64;
        (rate > WATCHDOG_ALLOC_BYTES_PER_SEC).then(|| {
            format!(
                "allocation rate {} MiB/s this tick (threshold {} MiB/s)",
                rate / (1024 * 1024),
                WATCHDOG_ALLOC_BYTES_PER_SEC / (1024 * 1024)
            )
        })
    });

    // STO heartbeat: once the orchestrator has ticked, it must keep
    // ticking. Cloned counter handle — no engine reference needed.
    let sto_ticks = engine.metrics().counter("sto.ticks");
    let stale_limit = (config.watchdog_txn_deadline_ms / config.telemetry_tick_ms.max(1)).max(3);
    let mut last = 0u64;
    let mut stale = 0u64;
    watchdog.add_rule("sto-stalled", move |_tick| {
        let now = sto_ticks.get();
        if now == 0 {
            return None; // never started — nothing to watch
        }
        if now != last {
            last = now;
            stale = 0;
            return None;
        }
        stale += 1;
        (stale >= stale_limit)
            .then(|| format!("sto.ticks stuck at {now} for {stale} harvester ticks"))
    });
}

// ---------------------------------------------------------------------------
// Health report
// ---------------------------------------------------------------------------

/// One fired watchdog event, without the (large) trace dump — the full
/// [`HealthEvent`] stays available via `PolarisEngine::watchdog_events`.
#[derive(Clone, Debug, Serialize)]
pub struct HealthEventSummary {
    /// Rule name.
    pub rule: String,
    /// Diagnosis at firing time.
    pub detail: String,
    /// Harvester tick of the firing.
    pub tick: u64,
    /// Milliseconds since watchdog creation.
    pub at_ms: u64,
}

/// One slow-log entry, without phases / span tree.
#[derive(Clone, Debug, Serialize)]
pub struct SlowSummary {
    /// `statement` or `transaction`.
    pub kind: String,
    /// Transaction id.
    pub txn: u64,
    /// Statement kind or commit summary.
    pub statement: String,
    /// Wall milliseconds.
    pub wall_ms: f64,
    /// Validation outcome.
    pub validation: String,
}

/// Lock pressure of one commit shard (lifetime totals).
#[derive(Clone, Debug, Serialize)]
pub struct ShardPressure {
    /// Shard index.
    pub shard: usize,
    /// Commit-lock holds recorded.
    pub holds: u64,
    /// Approximate p99 hold, ns.
    pub p99_ns: u64,
}

/// Occupancy of one DCP workload class.
#[derive(Clone, Debug, Serialize)]
pub struct LaneDepth {
    /// Workload class (`read` / `write` / `system`).
    pub class: String,
    /// Slots occupied right now.
    pub busy: usize,
    /// Slots across alive nodes.
    pub capacity: usize,
}

/// The `/health` + `SHOW ENGINE HEALTH` view: current status, firing
/// watchdogs, recent events, slow-log top entries, shard lock pressure
/// and lane occupancy.
#[derive(Clone, Debug, Serialize)]
pub struct HealthReport {
    /// `"ok"`, or `"degraded"` while any watchdog rule is firing.
    pub status: String,
    /// Seconds since the engine was constructed.
    pub uptime_seconds: u64,
    /// Crate version of the running build.
    pub build_version: String,
    /// Git revision of the running build (`"unknown"` when the build did
    /// not bake one in).
    pub build_git: String,
    /// Harvester ticks completed.
    pub harvester_ticks: u64,
    /// Harvester tick length (ms); 0 means manual ticking.
    pub tick_ms: u64,
    /// Exposition endpoint address, if serving.
    pub listen: Option<String>,
    /// Rules whose condition is true right now.
    pub firing: Vec<String>,
    /// Recent watchdog firings, oldest first.
    pub events: Vec<HealthEventSummary>,
    /// Validated commits parked in the group-commit queue.
    pub group_queue_depth: usize,
    /// Active transactions.
    pub active_txns: usize,
    /// Oldest active transaction id (0 when none).
    pub oldest_txn_id: u64,
    /// Oldest active transaction age in ms (0 when none).
    pub oldest_txn_ms: u64,
    /// Slowest retained statements/transactions, slowest first.
    pub slow: Vec<SlowSummary>,
    /// Per-shard commit-lock pressure.
    pub shard_pressure: Vec<ShardPressure>,
    /// Per-class compute-lane occupancy.
    pub lanes: Vec<LaneDepth>,
    /// Process resident set size in bytes (`/proc/self/statm`; 0 where
    /// unavailable).
    pub rss_bytes: u64,
    /// Live heap bytes per the tracking allocator (0 unless built with
    /// `--features track-alloc`).
    pub alloc_live_bytes: u64,
    /// Whether the tracking allocator is compiled in.
    pub alloc_tracking: bool,
    /// What [`PolarisEngine::open`] replayed from the durable commit log;
    /// `None` when the engine was built without durability.
    pub recovery: Option<crate::RecoveryReport>,
}

impl HealthReport {
    /// Pretty-printed JSON (the `/health` response body).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("health report serializes")
    }
}

impl PolarisEngine {
    /// Assemble the current [`HealthReport`] from the watchdog, slow log
    /// and live probes. Cheap enough to call per scrape.
    pub fn health_report(&self) -> HealthReport {
        let (harvester_ticks, firing, events, listen) = self
            .with_telemetry(|t| {
                (
                    t.harvester.ticks(),
                    t.watchdog.firing(),
                    t.watchdog.events(),
                    t.server.as_ref().map(|s| s.local_addr().to_string()),
                )
            })
            .unwrap_or((0, Vec::new(), Vec::new(), None));
        let oldest = self.catalog().oldest_active();
        let meter = self.catalog().meter();
        let shard_pressure = meter
            .commit_shard_holds
            .iter()
            .enumerate()
            .map(|(shard, hold)| {
                let snap = hold.snapshot();
                ShardPressure {
                    shard,
                    holds: snap.count,
                    p99_ns: snap.p99_ns,
                }
            })
            .filter(|p| p.holds > 0)
            .collect();
        let lanes = [
            WorkloadClass::Read,
            WorkloadClass::Write,
            WorkloadClass::System,
        ]
        .into_iter()
        .map(|class| LaneDepth {
            class: format!("{class:?}").to_ascii_lowercase(),
            busy: self.pool().busy(class),
            capacity: self.pool().capacity(class),
        })
        .collect();
        self.refresh_uptime_gauge();
        HealthReport {
            status: if firing.is_empty() {
                "ok".to_owned()
            } else {
                "degraded".to_owned()
            },
            uptime_seconds: self.uptime_seconds(),
            build_version: crate::engine::BUILD_VERSION.to_owned(),
            build_git: crate::engine::BUILD_GIT.to_owned(),
            harvester_ticks,
            tick_ms: self.config().telemetry_tick_ms,
            listen,
            firing,
            events: events
                .iter()
                .map(|e| HealthEventSummary {
                    rule: e.rule.clone(),
                    detail: e.detail.clone(),
                    tick: e.tick,
                    at_ms: e.at_ms,
                })
                .collect(),
            group_queue_depth: self.catalog().group_queue_depth(),
            active_txns: self.catalog().active_count(),
            oldest_txn_id: oldest.map(|(id, _)| id.0).unwrap_or(0),
            oldest_txn_ms: oldest.map(|(_, age)| age.as_millis() as u64).unwrap_or(0),
            slow: self
                .slow_log()
                .top(5)
                .into_iter()
                .map(|r| SlowSummary {
                    kind: r.kind,
                    txn: r.txn,
                    statement: r.statement,
                    wall_ms: r.wall_ns as f64 / 1e6,
                    validation: r.validation,
                })
                .collect(),
            shard_pressure,
            lanes,
            rss_bytes: polaris_obs::alloc::rss_bytes(),
            alloc_live_bytes: polaris_obs::alloc::totals().live_bytes(),
            alloc_tracking: polaris_obs::alloc::tracking_enabled(),
            recovery: self.recovery_report(),
        }
    }

    /// All retained watchdog firings (with trace dumps), oldest first.
    pub fn watchdog_events(&self) -> Vec<HealthEvent> {
        self.with_telemetry(|t| t.watchdog.events())
            .unwrap_or_default()
    }

    /// Export the harvester's time-series rings.
    pub fn time_series_snapshot(&self) -> polaris_obs::TimeSeriesSnapshot {
        self.with_telemetry(|t| t.harvester.time_series())
            .unwrap_or_default()
    }

    /// The bound telemetry endpoint address, when
    /// `EngineConfig::telemetry_listen` was set and the bind succeeded.
    /// With port 0 this reports the OS-assigned port.
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.with_telemetry(|t| t.server.as_ref().map(|s| s.local_addr()))
            .flatten()
    }

    /// Run one harvester tick (sampling + watchdog evaluation)
    /// synchronously — the deterministic driver for tests and single-shot
    /// tools running with `telemetry_tick_ms = 0`.
    pub fn telemetry_tick_once(&self) {
        let _ = self.with_telemetry(|t| t.harvester.run_once());
    }
}

/// Build a slow-log record for a finished statement (phase timings from
/// the profile, span tree from the tracer when enabled).
pub(crate) fn slow_statement_record(
    engine: &PolarisEngine,
    profile: &polaris_obs::QueryProfile,
    txn_id: u64,
) -> SlowRecord {
    let span_tree = if engine.tracer().is_enabled() && profile.trace_span != 0 {
        engine.tracer().render_span_tree(profile.trace_span)
    } else {
        String::new()
    };
    SlowRecord {
        kind: "statement".to_owned(),
        txn: txn_id,
        statement: profile.statement.clone(),
        wall_ns: profile.wall_ns,
        phases_ns: profile.phases_ns.clone(),
        validation: format!("{:?}", profile.validation),
        alloc_bytes: profile.alloc_bytes,
        allocs: profile.allocs,
        wait_ns: profile.wait_ns,
        span_tree,
        query_id: profile.query_id,
        at_unix_ms: unix_now_ms(),
    }
}

/// Current wall-clock time, milliseconds since the Unix epoch (0 if the
/// clock reads before the epoch).
pub(crate) fn unix_now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}
