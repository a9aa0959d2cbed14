//! The `polaris.*` system schema: engine introspection served as relational
//! tables through the normal plan/scan path.
//!
//! Each [`Table`] is a fixed column list plus a function copying one slice
//! of live engine state — metrics registry, harvester rings, slow log,
//! watchdog, active transactions, DCP lanes, the durable
//! commit log and the trace flight recorder — into rows. These rows are
//! the engine's one model of its own state: `/health` and `SHOW ENGINE
//! HEALTH` are queries over them ([`crate::HEALTH_QUERIES`]). The tables
//! share a contract:
//!
//! - **Read-only, point-in-time.** A scan copies state into one
//!   [`RecordBatch`] and holds nothing live afterwards.
//! - **Non-blocking.** They read lock-free handles (counters, gauges,
//!   histogram snapshots) or take short copy-and-release locks; none touch
//!   catalog transaction state, so a system scan never pins the GC
//!   watermark and never deadlocks against a commit.
//! - **Schema-stable.** Column names and types are fixed; new engine state
//!   extends a table with new columns rather than reshaping existing ones.
//!
//! Correlation: `polaris.slow_log.query_id` joins to
//! `polaris.trace_spans.query_id`, and `polaris.transactions.txn_id` joins
//! to `polaris.slow_log.txn` / `polaris.trace_spans.txn`.

use crate::PolarisEngine;
use polaris_columnar::DataType::{Bool, Float64, Int64, Utf8};
use polaris_columnar::{DataType, Field, RecordBatch, Schema, Value};
use polaris_dcp::WorkloadClass;
use polaris_exec::{ExecError, ExecResult, SystemSchema, SystemTableProvider};
use polaris_obs::{build_spans, AttrValue, Counter, MetricName, RecoveryMeter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

type Columns = &'static [(&'static str, DataType)];
type Rows = Vec<Vec<Value>>;
type RowsFn = fn(&PolarisEngine) -> Rows;

/// One `polaris.*` table. Holds a `Weak` engine reference (the engine owns
/// the registry, so a strong one would be a cycle) and yields an empty
/// batch if the engine is mid-teardown.
struct Table {
    name: &'static str,
    columns: Columns,
    rows: RowsFn,
    engine: Weak<PolarisEngine>,
}

impl SystemTableProvider for Table {
    fn name(&self) -> &'static str {
        self.name
    }

    fn schema(&self) -> Schema {
        let field = |(name, data_type): &(&str, DataType)| Field::new(*name, *data_type);
        Schema::new(self.columns.iter().map(field).collect())
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let engine = self.engine.upgrade();
        let rows = engine.map(|e| (self.rows)(&e)).unwrap_or_default();
        RecordBatch::from_rows(self.schema(), &rows).map_err(ExecError::from)
    }
}

/// Build the engine's system-table registry.
pub(crate) fn build(engine: &Weak<PolarisEngine>) -> SystemSchema {
    let tables: [(&'static str, Columns, RowsFn); 8] = [
        ("metrics", METRICS, metrics_rows),
        ("metrics_history", METRICS_HISTORY, metrics_history_rows),
        ("slow_log", SLOW_LOG, slow_log_rows),
        ("watchdog_events", WATCHDOG_EVENTS, watchdog_events_rows),
        ("transactions", TRANSACTIONS, transactions_rows),
        ("lanes", LANES, lanes_rows),
        ("wal", WAL, wal_rows),
        ("trace_spans", TRACE_SPANS, trace_spans_rows),
    ];
    let mut schema = SystemSchema::new();
    for (name, columns, rows) in tables {
        schema.register(Arc::new(Table {
            name,
            columns,
            rows,
            engine: engine.clone(),
        }));
    }
    schema
}

fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// Split a registry key into `(base, "k=v,k=v")`; keys that fail name
/// parsing pass through verbatim with empty labels.
fn split_labels(key: &str) -> (String, String) {
    match MetricName::parse(key) {
        Ok(name) => {
            let labels = name
                .labels()
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            (name.base().to_owned(), labels)
        }
        Err(_) => (key.to_owned(), String::new()),
    }
}

/// `polaris.metrics` — every registered metric, one row per registry key:
/// counters and gauges carry their value, histograms their lifetime
/// count/sum and bucket quantiles.
const METRICS: Columns = &[
    ("name", Utf8),
    ("labels", Utf8),
    ("kind", Utf8),
    ("value", Float64),
    ("count", Int64),
    ("p50_ns", Int64),
    ("p95_ns", Int64),
    ("p99_ns", Int64),
];

fn metrics_rows(engine: &PolarisEngine) -> Rows {
    let snap = engine.metrics_snapshot();
    let row = |key: &str, kind: &str, value: f64, count: u64, quantiles: [u64; 3]| {
        let (name, labels) = split_labels(key);
        let [p50, p95, p99] = quantiles.map(int);
        vec![
            Value::Str(name),
            Value::Str(labels),
            text(kind),
            Value::Float(value),
            int(count),
            p50,
            p95,
            p99,
        ]
    };
    let counters = snap.counters.iter();
    let gauges = snap.gauges.iter();
    let histograms = snap.histograms.iter();
    counters
        .map(|(k, v)| row(k, "counter", *v as f64, *v, [0; 3]))
        .chain(gauges.map(|(k, v)| row(k, "gauge", *v as f64, 0, [0; 3])))
        .chain(histograms.map(|(k, h)| {
            let quantiles = [h.p50_ns, h.p95_ns, h.p99_ns];
            row(k, "histogram", h.sum_ns as f64, h.count, quantiles)
        }))
        .collect()
}

/// `polaris.metrics_history` — the harvester's per-tick time-series rings,
/// one row per retained sample. `wall_ms` is the sample's absolute
/// wall-clock capture time (harvester start + tick offset), so history
/// rows line up with `polaris.slow_log.at_unix_ms`.
const METRICS_HISTORY: Columns = &[
    ("name", Utf8),
    ("kind", Utf8),
    ("t_ms", Int64),
    ("wall_ms", Int64),
    ("value", Float64),
    ("count", Int64),
    ("p50_ns", Int64),
    ("p95_ns", Int64),
    ("p99_ns", Int64),
];

fn metrics_history_rows(engine: &PolarisEngine) -> Rows {
    let ts = engine.telemetry().harvester.time_series();
    let row = |name: &str, kind: &str, t_ms: u64, value: f64, count: u64, quantiles: [u64; 3]| {
        let [p50, p95, p99] = quantiles.map(int);
        vec![
            text(name),
            text(kind),
            int(t_ms),
            int(ts.wall_start_ms + t_ms),
            Value::Float(value),
            int(count),
            p50,
            p95,
            p99,
        ]
    };
    let mut rows = Rows::new();
    for (kind, series) in [("rate", &ts.rates), ("gauge", &ts.gauges)] {
        for (name, points) in series {
            let point = |p: &polaris_obs::TsPoint| row(name, kind, p.t_ms, p.value, 0, [0; 3]);
            rows.extend(points.iter().map(point));
        }
    }
    for (name, points) in &ts.quantiles {
        rows.extend(points.iter().map(|p| {
            let quantiles = [p.p50_ns, p.p95_ns, p.p99_ns];
            row(
                name,
                "quantile",
                p.t_ms,
                p.p50_ns as f64,
                p.count,
                quantiles,
            )
        }));
    }
    rows
}

/// `polaris.slow_log` — the retained slow statements/transactions, oldest
/// first. `query_id` joins to `polaris.trace_spans` (0 for commit-summary
/// records).
const SLOW_LOG: Columns = &[
    ("kind", Utf8),
    ("txn", Int64),
    ("query_id", Int64),
    ("statement", Utf8),
    ("wall_ns", Int64),
    ("validation", Utf8),
    ("alloc_bytes", Int64),
    ("allocs", Int64),
    ("wait_ns", Int64),
    ("at_unix_ms", Int64),
];

fn slow_log_rows(engine: &PolarisEngine) -> Rows {
    let entries = engine.slow_log().entries().into_iter();
    entries
        .map(|e| {
            let p = e.profile;
            let totals = p.totals();
            vec![
                text(e.kind),
                int(e.txn),
                int(p.query_id),
                Value::Str(p.statement),
                int(p.wall_ns),
                Value::Str(format!("{:?}", p.validation)),
                int(totals.bytes),
                int(totals.allocs),
                int(totals.wait_ns),
                int(e.at_unix_ms),
            ]
        })
        .collect()
}

/// `polaris.watchdog_events` — fired watchdog rules, oldest first, each
/// with the trace post-mortem captured at the firing (large: select the
/// other columns to skip it).
const WATCHDOG_EVENTS: Columns = &[
    ("rule", Utf8),
    ("detail", Utf8),
    ("tick", Int64),
    ("at_ms", Int64),
    ("trace_dump", Utf8),
];

fn watchdog_events_rows(engine: &PolarisEngine) -> Rows {
    let events = engine.telemetry().watchdog.events().into_iter();
    events
        .map(|e| {
            vec![
                Value::Str(e.rule),
                Value::Str(e.detail),
                int(e.tick),
                int(e.at_ms),
                Value::Str(e.trace_dump),
            ]
        })
        .collect()
}

/// `polaris.transactions` — active transactions: catalog registration
/// (id, snapshot ts, age) enriched with the engine's live execution stats
/// (phase, statements, tables touched, allocation totals).
const TRANSACTIONS: Columns = &[
    ("txn_id", Int64),
    ("snapshot_ts", Int64),
    ("age_ms", Int64),
    ("phase", Utf8),
    ("statements", Int64),
    ("tables_touched", Int64),
    ("alloc_bytes", Int64),
    ("allocs", Int64),
];

fn transactions_rows(engine: &PolarisEngine) -> Rows {
    let mut active = engine.catalog().active_txns();
    active.sort_by_key(|(id, _, _)| id.0);
    active
        .into_iter()
        .map(|(id, snapshot, age)| {
            // `active` while statements run, `committing` once the commit
            // protocol has started; a catalog transaction no user
            // transaction owns (DDL, STO) is just `catalog`.
            let stat = engine.txn_stat_get(id.0);
            let phase = match &stat {
                None => "catalog",
                Some(s) if s.committing.load(Ordering::Relaxed) => "committing",
                Some(_) => "active",
            };
            let stat = stat.unwrap_or_default();
            let load = |n: &AtomicU64| int(n.load(Ordering::Relaxed));
            vec![
                int(id.0),
                int(snapshot.0),
                int(age.as_millis() as u64),
                text(phase),
                load(&stat.statements),
                load(&stat.tables_touched),
                load(&stat.alloc_bytes),
                load(&stat.allocs),
            ]
        })
        .collect()
}

/// `polaris.lanes` — DCP pool occupancy per workload class. (The pool's
/// lifetime counters are not per class: `dcp.*` / `exec.*` in
/// `polaris.metrics`.)
const LANES: Columns = &[
    ("class", Utf8),
    ("busy", Int64),
    ("capacity", Int64),
    ("alive", Int64),
];

fn lanes_rows(engine: &PolarisEngine) -> Rows {
    let pool = engine.pool();
    let classes = [
        WorkloadClass::Read,
        WorkloadClass::Write,
        WorkloadClass::System,
    ];
    classes
        .into_iter()
        .map(|class| {
            vec![
                Value::Str(format!("{class:?}").to_ascii_lowercase()),
                int(pool.busy(class) as u64),
                int(pool.capacity(class) as u64),
                int(pool.alive_count(class) as u64),
            ]
        })
        .collect()
}

/// `polaris.wal` — one row summarizing the durable commit log:
/// segment/append/checkpoint counters from the `wal.*` / `recovery.*`
/// registry names plus the last recovery's replay watermark and the time of
/// each of its steps. All zeros (with `enabled = false`) when durability is
/// off.
const WAL: Columns = &[
    ("enabled", Bool),
    ("segments", Int64),
    ("appends", Int64),
    ("bytes", Int64),
    ("checkpoints", Int64),
    ("segments_pruned", Int64),
    ("replayed_batches", Int64),
    ("replayed_commits", Int64),
    ("torn_records", Int64),
    ("checkpoint_clock", Int64),
    ("replay_watermark", Int64),
    ("checkpoint_fold_ns", Int64),
    ("log_fold_ns", Int64),
    ("import_ns", Int64),
    ("recovery_ns", Int64),
];

fn wal_rows(engine: &PolarisEngine) -> Rows {
    // The writer's own handles: a lookup by name would register the
    // `wal.*` names on an engine that logs nothing.
    let meter = engine.commit_log_writer().map(|writer| writer.meter());
    let c = |counter: fn(&RecoveryMeter) -> &Counter| int(meter.map_or(0, |m| counter(m).get()));
    let report = engine.recovery_report().unwrap_or_default();
    vec![vec![
        Value::Bool(meter.is_some()),
        c(|m| &m.wal_segments),
        c(|m| &m.wal_appends),
        c(|m| &m.wal_bytes),
        c(|m| &m.checkpoints),
        c(|m| &m.segments_pruned),
        c(|m| &m.replayed_batches),
        c(|m| &m.replayed_commits),
        c(|m| &m.torn_records),
        int(report.checkpoint_clock),
        int(report.recovered_clock),
        int(report.checkpoint_fold_ns),
        int(report.log_fold_ns),
        int(report.import_ns),
        int(report.wall_ns),
    ]]
}

/// `polaris.trace_spans` — the trace flight-recorder ring decoded to rows,
/// one per reconstructed span. `query_id` / `txn` surface those attributes
/// where a span carries them (statement roots and transaction roots
/// respectively; 0 elsewhere), so slow-log rows join to their span trees.
/// Empty when tracing is disabled.
const TRACE_SPANS: Columns = &[
    ("span_id", Int64),
    ("parent_span", Int64),
    ("name", Utf8),
    ("start_ns", Int64),
    ("dur_ns", Int64),
    ("lane", Int64),
    ("txn", Int64),
    ("query_id", Int64),
    ("attrs", Utf8),
];

fn trace_spans_rows(engine: &PolarisEngine) -> Rows {
    let attr_u64 = |v: Option<&AttrValue>| match v {
        Some(AttrValue::U64(x)) => int(*x),
        _ => int(0),
    };
    let events = engine.tracer().events();
    build_spans(&events)
        .values()
        .map(|span| {
            let attrs = span
                .attrs
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            vec![
                int(span.id),
                int(span.parent),
                Value::Str(span.name.clone()),
                int(span.start_ns),
                int(span.duration_ns()),
                int(span.tid),
                attr_u64(span.attr("txn")),
                attr_u64(span.attr("query_id")),
                Value::Str(attrs),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_labels_handles_plain_and_labeled_keys() {
        assert_eq!(
            split_labels("catalog.commits"),
            ("catalog.commits".to_owned(), String::new())
        );
        let (base, labels) = split_labels("alloc.bytes{phase=\"replay\"}");
        assert_eq!(base, "alloc.bytes");
        assert_eq!(labels, "phase=replay");
    }

    #[test]
    fn every_table_scans_and_is_schema_stable() {
        let engine = PolarisEngine::in_memory();
        let tables = engine.system_tables();
        assert_eq!(tables.names().len(), 8);
        for name in tables.names() {
            let provider = tables.get(name).expect("registered");
            let batch = provider.scan().expect("system scan succeeds");
            assert_eq!(
                batch.schema(),
                &provider.schema(),
                "{name} batch schema drifted from its declared schema"
            );
        }
    }
}
