//! Continuous-telemetry wiring: harvester thread, stall watchdog rules,
//! the HTTP exposition endpoint and the engine health view.
//!
//! The obs crate provides the mechanisms ([`Harvester`], [`Watchdog`],
//! [`polaris_obs::SlowLog`], [`TelemetryServer`]); this module binds them to a
//! running [`PolarisEngine`]: which registry to sample, which stall rules
//! to evaluate against which probes, and what `/health` should say. Rules
//! and endpoint closures hold `Weak` engine references (the engine owns
//! its telemetry, so an `Arc` here would be a cycle) or cloned lock-free
//! metric handles, which need no engine at all.
//!
//! Engine health has one model — the `polaris.*` rows — and one composite
//! view of it, [`HEALTH_QUERIES`]: `GET /health` renders each query's
//! batch as JSON, `SHOW ENGINE HEALTH` as text lines.
//!
//! Five stall rules ship by default, all edge-triggered (one
//! `polaris.watchdog_events` row per episode, `watchdog.firing{rule=…}`
//! at 1 for as long as it lasts):
//!
//! | rule | fires when |
//! |------|------------|
//! | `gc-watermark` | the oldest active transaction exceeds `watchdog_txn_deadline_ms`, pinning vacuum + snapshot retention |
//! | `group-commit-stall` | the group-commit queue stays non-empty for `watchdog_queue_stall_ticks` consecutive ticks |
//! | `commit-lock-hold` | the commit lock's per-tick p99 hold exceeds 1 s |
//! | `sto-stalled` | `sto.ticks` stops advancing for a deadline's worth of harvester ticks after the STO has started |
//! | `alloc-rate-spike` | the tracking allocator's per-tick allocation rate exceeds 1 GiB/s (tracking builds only) |
//!
//! Rule closures evaluate once per harvester tick and must not allocate
//! at steady state (the allocation gate runs the harvester): state is
//! pre-sized at install time and reused across ticks.

use crate::{EngineConfig, PolarisEngine, PolarisResult, Session};
use polaris_catalog::Catalog;
use polaris_columnar::{RecordBatch, Value};
use polaris_obs::{
    quantile_from_counts, Gauge, Harvester, HealthFn, MetricsRegistry, ProbeFn, TelemetryServer,
    Tracer, Watchdog,
};
use serde_json::json;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Health events retained by the engine watchdog.
const EVENT_CAPACITY: usize = 64;

/// Time-series ring length per metric, in ticks.
const TELEMETRY_WINDOW: usize = 120;

/// `commit-lock-hold` fires on a per-tick p99 commit-lock hold above this.
const WATCHDOG_LOCK_HOLD_MS: u64 = 1_000;

/// `alloc-rate-spike` fires on an engine-wide allocation rate above this.
const WATCHDOG_ALLOC_BYTES_PER_SEC: u64 = 1 << 30;

/// Slow statements and transactions retained by the engine slow log.
pub(crate) const SLOW_LOG_CAPACITY: usize = 128;

/// The engine's continuous-telemetry runtime: harvester (threaded when
/// `telemetry_tick_ms > 0`, manual otherwise), watchdog, the optional
/// HTTP endpoint, and the probe gauges [`PolarisEngine::refresh_probes`]
/// keeps current.
pub(crate) struct EngineTelemetry {
    pub(crate) harvester: Harvester,
    pub(crate) watchdog: Arc<Watchdog>,
    server: Option<TelemetryServer>,
    started: Instant,
    uptime: Gauge,
    group_queue_depth: Gauge,
    harvester_ticks: Gauge,
}

/// Build and start telemetry for the engine under construction (`weak`
/// upgrades once `Arc::new_cyclic` returns; until then rules see no engine
/// and a scrape is answered as if it were shutting down).
pub(crate) fn start(
    weak: &Weak<PolarisEngine>,
    config: &EngineConfig,
    metrics: &Arc<MetricsRegistry>,
    tracer: &Tracer,
    catalog: &Catalog,
) -> EngineTelemetry {
    let watchdog = Arc::new(Watchdog::new(
        Arc::clone(metrics),
        tracer.clone(),
        EVENT_CAPACITY,
    ));
    install_rules(weak, config, metrics, catalog, &watchdog);

    let tick = Duration::from_millis(config.telemetry_tick_ms.max(1));
    let harvester = if config.telemetry_tick_ms > 0 {
        Harvester::start(Arc::clone(metrics), tick, TELEMETRY_WINDOW)
    } else {
        // No background thread; `PolarisEngine::telemetry_tick_once`
        // advances deterministically (tests, single-shot tools).
        Harvester::detached(Arc::clone(metrics), tick, TELEMETRY_WINDOW)
    };
    let engine = weak.clone();
    let probe: ProbeFn = Arc::new(move || {
        if let Some(engine) = engine.upgrade() {
            engine.refresh_probes();
        }
    });
    let (refresh, rules) = (Arc::clone(&probe), Arc::clone(&watchdog));
    harvester.on_tick(move |tick| {
        refresh();
        rules.evaluate_once(tick);
    });

    let server = config.telemetry_listen.and_then(|addr| {
        let engine = weak.clone();
        let health: HealthFn = Arc::new(move || match engine.upgrade() {
            Some(engine) => health_json(&engine),
            None => "{\"status\":\"shutting down\"}".to_owned(),
        });
        match TelemetryServer::start(addr, Arc::clone(metrics), probe, health) {
            Ok(server) => Some(server),
            Err(_) => {
                // An unusable endpoint must not take the engine down;
                // surface it as a counter instead.
                metrics.counter("obs.telemetry_bind_failures").inc();
                None
            }
        }
    });

    EngineTelemetry {
        harvester,
        watchdog,
        server,
        started: Instant::now(),
        uptime: metrics.gauge("uptime_seconds"),
        group_queue_depth: metrics.gauge("catalog.group_queue_depth"),
        harvester_ticks: metrics.gauge("obs.harvester_ticks"),
    }
}

/// Register the five standard stall rules.
fn install_rules(
    weak: &Weak<PolarisEngine>,
    config: &EngineConfig,
    metrics: &MetricsRegistry,
    catalog: &Catalog,
    watchdog: &Watchdog,
) {
    // Oldest active transaction pinning the GC watermark.
    let engine = weak.clone();
    let deadline = Duration::from_millis(config.watchdog_txn_deadline_ms.max(1));
    watchdog.add_rule("gc-watermark", move |_tick| {
        let engine = engine.upgrade()?;
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
    let engine = weak.clone();
    let need = config.watchdog_queue_stall_ticks.max(1);
    let mut stuck = 0u64;
    watchdog.add_rule("group-commit-stall", move |_tick| {
        let engine = engine.upgrade()?;
        let depth = engine.catalog().group_queue_depth();
        if depth == 0 {
            stuck = 0;
            return None;
        }
        stuck += 1;
        (stuck >= need)
            .then(|| format!("group-commit queue depth {depth} not draining for {stuck} ticks"))
    });

    // Per-tick p99 commit-lock hold above threshold. A cloned histogram
    // handle — no engine reference needed. Bucket state lives on the
    // stack, so a tick allocates nothing.
    let hold = catalog.meter().commit_lock_hold.clone();
    let threshold_ns = WATCHDOG_LOCK_HOLD_MS * 1_000_000;
    let mut prev = [0u64; polaris_obs::HIST_BUCKETS];
    hold.bucket_counts_into(&mut prev);
    watchdog.add_rule("commit-lock-hold", move |_tick| {
        let mut now = [0u64; polaris_obs::HIST_BUCKETS];
        hold.bucket_counts_into(&mut now);
        let delta: [u64; polaris_obs::HIST_BUCKETS] =
            std::array::from_fn(|j| now[j].saturating_sub(prev[j]));
        prev = now;
        let p99 = quantile_from_counts(&delta, 0.99);
        (p99 > threshold_ns).then(|| {
            format!(
                "commit lock hold p99 {:.1}ms this tick (threshold {}ms)",
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
    let sto_ticks = metrics.counter("sto.ticks");
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
// Health view
// ---------------------------------------------------------------------------

/// The engine health view: `(section, SQL)` pairs over `polaris.*`, run in
/// this order through the path any user `SELECT` takes. `GET /health` and
/// `SHOW ENGINE HEALTH` render these batches and nothing else (beside the
/// status they derive — `degraded` iff `firing` has a row — and the tick /
/// endpoint configuration); removing a pair removes the section from both.
/// The `transactions` section lists the reader's own transaction too, as
/// every `SELECT` over `polaris.transactions` does.
pub const HEALTH_QUERIES: &[(&str, &str)] = &[
    (
        "firing",
        "SELECT labels FROM polaris.metrics WHERE name = 'watchdog.firing' AND value = 1",
    ),
    (
        "engine",
        "SELECT name, labels, value FROM polaris.metrics \
         WHERE name = 'build_info' OR name = 'uptime_seconds' \
         OR name = 'obs.harvester_ticks' OR name = 'catalog.group_queue_depth'",
    ),
    (
        "memory",
        "SELECT name, value FROM polaris.metrics \
         WHERE name = 'process.resident_bytes' OR name = 'alloc.live_bytes'",
    ),
    (
        "transactions",
        "SELECT txn_id, snapshot_ts, age_ms, phase, statements FROM polaris.transactions \
         ORDER BY age_ms DESC LIMIT 5",
    ),
    (
        "wal",
        "SELECT enabled, segments, appends, checkpoints, replayed_commits, torn_records, \
         checkpoint_clock, replay_watermark FROM polaris.wal",
    ),
    (
        "events",
        "SELECT rule, detail, tick, at_ms FROM polaris.watchdog_events",
    ),
    (
        "slow",
        "SELECT kind, txn, statement, wall_ns, validation FROM polaris.slow_log \
         ORDER BY wall_ns DESC LIMIT 5",
    ),
    (
        "commit_lock",
        "SELECT count, p99_ns FROM polaris.metrics \
         WHERE name = 'catalog.commit_lock_hold_ns' AND count > 0",
    ),
    ("lanes", "SELECT class, busy, capacity FROM polaris.lanes"),
];

/// Run [`HEALTH_QUERIES`] through `session`; the status is `degraded` iff
/// the `firing` section has a row.
fn health_sections(
    session: &mut Session,
) -> PolarisResult<(&'static str, Vec<(&'static str, RecordBatch)>)> {
    let mut status = "ok";
    let mut sections = Vec::with_capacity(HEALTH_QUERIES.len());
    for &(section, sql) in HEALTH_QUERIES {
        let batch = session.query(sql)?;
        if section == "firing" && batch.num_rows() > 0 {
            status = "degraded";
        }
        sections.push((section, batch));
    }
    Ok((status, sections))
}

/// One line per row, `section: column=value …` (strings quoted), or
/// `section: none` for an empty batch.
fn batch_lines(section: &str, batch: &RecordBatch, lines: &mut Vec<String>) {
    if batch.num_rows() == 0 {
        lines.push(format!("{section}: none"));
    }
    for i in 0..batch.num_rows() {
        let cells: Vec<String> = batch
            .schema()
            .fields()
            .iter()
            .zip(batch.row(i))
            .map(|(field, value)| match value {
                Value::Str(s) => format!("{}={s:?}", field.name),
                other => format!("{}={other}", field.name),
            })
            .collect();
        lines.push(format!("{section}: {}", cells.join(" ")));
    }
}

/// The batch as a JSON array of `{column: value}` row objects.
fn batch_json(batch: &RecordBatch) -> serde_json::Value {
    let rows = (0..batch.num_rows()).map(|i| {
        let cells = batch.schema().fields().iter().zip(batch.row(i));
        serde_json::Value::Object(
            cells
                .map(|(field, value)| {
                    let value = match value {
                        Value::Null => serde_json::Value::Null,
                        Value::Int(v) => serde_json::Value::Int(v),
                        Value::Float(v) => serde_json::Value::Float(v),
                        Value::Str(v) => serde_json::Value::String(v),
                        Value::Bool(v) => serde_json::Value::Bool(v),
                        Value::Date(v) => serde_json::Value::Int(v.into()),
                    };
                    (field.name.clone(), value)
                })
                .collect(),
        )
    });
    serde_json::Value::Array(rows.collect())
}

/// `SHOW ENGINE HEALTH`: the health view as a single-column result set.
pub(crate) fn health_text(session: &mut Session) -> PolarisResult<RecordBatch> {
    let (status, sections) = health_sections(session)?;
    let engine = session.engine();
    let mut lines = vec![
        format!("status: {status}"),
        format!(
            "telemetry: tick {} ms, endpoint {}",
            engine.config().telemetry_tick_ms,
            engine
                .telemetry_addr()
                .map_or_else(|| "none".to_owned(), |addr| addr.to_string())
        ),
    ];
    for (section, batch) in &sections {
        batch_lines(section, batch, &mut lines);
    }
    crate::session::text_rows("health", lines)
}

/// `GET /health`: the health view as one JSON object.
fn health_json(engine: &Arc<PolarisEngine>) -> String {
    let body = health_sections(&mut engine.session()).map(|(status, sections)| {
        let listen = engine.telemetry_addr().map(|addr| addr.to_string());
        let mut fields = vec![
            ("status".to_owned(), json!(status)),
            (
                "tick_ms".to_owned(),
                json!(engine.config().telemetry_tick_ms),
            ),
            ("listen".to_owned(), json!(listen)),
        ];
        fields.extend(
            sections
                .iter()
                .map(|(section, batch)| ((*section).to_owned(), batch_json(batch))),
        );
        serde_json::Value::Object(fields)
    });
    let body = body.unwrap_or_else(|e| json!({ "status": "error", "error": e.to_string() }));
    serde_json::to_string_pretty(&body).unwrap_or_default()
}

impl PolarisEngine {
    /// Bring the gauges that mirror live engine state up to date. Every
    /// reader of the registry calls this first: the harvester tick, a
    /// `/metrics` scrape and [`PolarisEngine::metrics_snapshot`] (hence
    /// every `polaris.metrics` scan).
    pub(crate) fn refresh_probes(&self) {
        let t = self.telemetry();
        t.uptime.set(t.started.elapsed().as_secs() as i64);
        t.group_queue_depth
            .set(self.catalog().group_queue_depth() as i64);
        t.harvester_ticks.set(t.harvester.ticks() as i64);
    }

    /// The bound telemetry endpoint address, when
    /// `EngineConfig::telemetry_listen` was set and the bind succeeded.
    /// With port 0 this reports the OS-assigned port.
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry().server.as_ref().map(|s| s.local_addr())
    }

    /// Run one harvester tick (probe refresh, watchdog evaluation,
    /// sampling) synchronously — the deterministic driver for tests and
    /// single-shot tools running with `telemetry_tick_ms = 0`.
    pub fn telemetry_tick_once(&self) {
        self.telemetry().harvester.run_once();
    }
}
