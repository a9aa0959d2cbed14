//! The `polaris.*` system schema: engine introspection served as relational
//! tables through the normal plan/scan path.
//!
//! Each provider implements [`SystemTableProvider`] over one slice of live
//! engine state — metrics registry, harvester rings, slow log, watchdog,
//! active transactions, commit shards, DCP lanes, the durable commit log
//! and the trace flight recorder. Providers follow a shared contract:
//!
//! - **Read-only, point-in-time.** A scan copies state into one
//!   [`RecordBatch`] and holds nothing live afterwards.
//! - **Non-blocking.** Providers read lock-free handles (counters, gauges,
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
use polaris_columnar::{DataType, Field, RecordBatch, Schema, Value};
use polaris_dcp::WorkloadClass;
use polaris_exec::{ExecError, ExecResult, SystemSchema, SystemTableProvider};
use polaris_obs::{build_spans, AttrValue, MetricName};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Build the engine's system-table registry. Called once from
/// `PolarisEngine::new` after the `Arc` exists; every provider holds a
/// `Weak` engine reference (the engine owns the registry, so strong
/// references here would be a cycle) and yields an empty batch if the
/// engine is mid-teardown.
pub(crate) fn build(engine: &Arc<PolarisEngine>) -> SystemSchema {
    let mut schema = SystemSchema::new();
    let weak = || Arc::downgrade(engine);
    schema.register(Arc::new(MetricsTable(weak())));
    schema.register(Arc::new(MetricsHistoryTable(weak())));
    schema.register(Arc::new(SlowLogTable(weak())));
    schema.register(Arc::new(WatchdogEventsTable(weak())));
    schema.register(Arc::new(TransactionsTable(weak())));
    schema.register(Arc::new(CommitShardsTable(weak())));
    schema.register(Arc::new(LanesTable(weak())));
    schema.register(Arc::new(WalTable(weak())));
    schema.register(Arc::new(TraceSpansTable(weak())));
    schema
}

/// Shorthand: materialize `rows` onto `schema` as one batch.
fn batch(schema: Schema, rows: &[Vec<Value>]) -> ExecResult<RecordBatch> {
    RecordBatch::from_rows(schema, rows).map_err(ExecError::from)
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

fn attr_to_string(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(x) => x.to_string(),
        AttrValue::F64(x) => x.to_string(),
        AttrValue::Str(s) => s.clone(),
        AttrValue::Bool(b) => b.to_string(),
    }
}

fn attr_u64(v: Option<&AttrValue>) -> i64 {
    match v {
        Some(AttrValue::U64(x)) => *x as i64,
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// polaris.metrics
// ---------------------------------------------------------------------------

/// Every registered metric, one row per registry key: counters and gauges
/// carry their value, histograms their lifetime count/sum and bucket
/// quantiles.
struct MetricsTable(Weak<PolarisEngine>);

impl SystemTableProvider for MetricsTable {
    fn name(&self) -> &'static str {
        "metrics"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("labels", DataType::Utf8),
            Field::new("kind", DataType::Utf8),
            Field::new("value", DataType::Float64),
            Field::new("count", DataType::Int64),
            Field::new("p50_ns", DataType::Int64),
            Field::new("p95_ns", DataType::Int64),
            Field::new("p99_ns", DataType::Int64),
        ])
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let Some(engine) = self.0.upgrade() else {
            return batch(self.schema(), &[]);
        };
        let snap = engine.metrics_snapshot();
        let mut rows = Vec::new();
        for (key, v) in &snap.counters {
            let (name, labels) = split_labels(key);
            rows.push(vec![
                Value::Str(name),
                Value::Str(labels),
                Value::Str("counter".to_owned()),
                Value::Float(*v as f64),
                Value::Int(*v as i64),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
            ]);
        }
        for (key, v) in &snap.gauges {
            let (name, labels) = split_labels(key);
            rows.push(vec![
                Value::Str(name),
                Value::Str(labels),
                Value::Str("gauge".to_owned()),
                Value::Float(*v as f64),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
            ]);
        }
        for (key, h) in &snap.histograms {
            let (name, labels) = split_labels(key);
            rows.push(vec![
                Value::Str(name),
                Value::Str(labels),
                Value::Str("histogram".to_owned()),
                Value::Float(h.sum_ns as f64),
                Value::Int(h.count as i64),
                Value::Int(h.p50_ns as i64),
                Value::Int(h.p95_ns as i64),
                Value::Int(h.p99_ns as i64),
            ]);
        }
        batch(self.schema(), &rows)
    }
}

// ---------------------------------------------------------------------------
// polaris.metrics_history
// ---------------------------------------------------------------------------

/// The harvester's per-tick time-series rings, one row per retained
/// sample. `wall_ms` is the sample's absolute wall-clock capture time
/// (harvester start + tick offset), so history rows line up with
/// `polaris.slow_log.at_unix_ms`.
struct MetricsHistoryTable(Weak<PolarisEngine>);

impl SystemTableProvider for MetricsHistoryTable {
    fn name(&self) -> &'static str {
        "metrics_history"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("kind", DataType::Utf8),
            Field::new("t_ms", DataType::Int64),
            Field::new("wall_ms", DataType::Int64),
            Field::new("value", DataType::Float64),
            Field::new("count", DataType::Int64),
            Field::new("p50_ns", DataType::Int64),
            Field::new("p95_ns", DataType::Int64),
            Field::new("p99_ns", DataType::Int64),
        ])
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let Some(engine) = self.0.upgrade() else {
            return batch(self.schema(), &[]);
        };
        let ts = engine.time_series_snapshot();
        let wall = |t_ms: u64| (ts.wall_start_ms + t_ms) as i64;
        let mut rows = Vec::new();
        for (name, points) in &ts.rates {
            for p in points {
                rows.push(vec![
                    Value::Str(name.clone()),
                    Value::Str("rate".to_owned()),
                    Value::Int(p.t_ms as i64),
                    Value::Int(wall(p.t_ms)),
                    Value::Float(p.value),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(0),
                ]);
            }
        }
        for (name, points) in &ts.gauges {
            for p in points {
                rows.push(vec![
                    Value::Str(name.clone()),
                    Value::Str("gauge".to_owned()),
                    Value::Int(p.t_ms as i64),
                    Value::Int(wall(p.t_ms)),
                    Value::Float(p.value),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(0),
                ]);
            }
        }
        for (name, points) in &ts.quantiles {
            for p in points {
                rows.push(vec![
                    Value::Str(name.clone()),
                    Value::Str("quantile".to_owned()),
                    Value::Int(p.t_ms as i64),
                    Value::Int(wall(p.t_ms)),
                    Value::Float(p.p50_ns as f64),
                    Value::Int(p.count as i64),
                    Value::Int(p.p50_ns as i64),
                    Value::Int(p.p95_ns as i64),
                    Value::Int(p.p99_ns as i64),
                ]);
            }
        }
        batch(self.schema(), &rows)
    }
}

// ---------------------------------------------------------------------------
// polaris.slow_log
// ---------------------------------------------------------------------------

/// The retained slow statements/transactions, oldest first. `query_id`
/// joins to `polaris.trace_spans` (0 for commit-summary records).
struct SlowLogTable(Weak<PolarisEngine>);

impl SystemTableProvider for SlowLogTable {
    fn name(&self) -> &'static str {
        "slow_log"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("kind", DataType::Utf8),
            Field::new("txn", DataType::Int64),
            Field::new("query_id", DataType::Int64),
            Field::new("statement", DataType::Utf8),
            Field::new("wall_ns", DataType::Int64),
            Field::new("validation", DataType::Utf8),
            Field::new("alloc_bytes", DataType::Int64),
            Field::new("allocs", DataType::Int64),
            Field::new("wait_ns", DataType::Int64),
            Field::new("at_unix_ms", DataType::Int64),
        ])
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let Some(engine) = self.0.upgrade() else {
            return batch(self.schema(), &[]);
        };
        let rows: Vec<Vec<Value>> = engine
            .slow_log()
            .records()
            .into_iter()
            .map(|r| {
                vec![
                    Value::Str(r.kind),
                    Value::Int(r.txn as i64),
                    Value::Int(r.query_id as i64),
                    Value::Str(r.statement),
                    Value::Int(r.wall_ns as i64),
                    Value::Str(r.validation),
                    Value::Int(r.alloc_bytes as i64),
                    Value::Int(r.allocs as i64),
                    Value::Int(r.wait_ns as i64),
                    Value::Int(r.at_unix_ms as i64),
                ]
            })
            .collect();
        batch(self.schema(), &rows)
    }
}

// ---------------------------------------------------------------------------
// polaris.watchdog_events
// ---------------------------------------------------------------------------

/// Fired watchdog rules, oldest first (without the large trace dumps —
/// those stay on `PolarisEngine::watchdog_events`).
struct WatchdogEventsTable(Weak<PolarisEngine>);

impl SystemTableProvider for WatchdogEventsTable {
    fn name(&self) -> &'static str {
        "watchdog_events"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("rule", DataType::Utf8),
            Field::new("detail", DataType::Utf8),
            Field::new("tick", DataType::Int64),
            Field::new("at_ms", DataType::Int64),
        ])
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let Some(engine) = self.0.upgrade() else {
            return batch(self.schema(), &[]);
        };
        let rows: Vec<Vec<Value>> = engine
            .watchdog_events()
            .into_iter()
            .map(|e| {
                vec![
                    Value::Str(e.rule),
                    Value::Str(e.detail),
                    Value::Int(e.tick as i64),
                    Value::Int(e.at_ms as i64),
                ]
            })
            .collect();
        batch(self.schema(), &rows)
    }
}

// ---------------------------------------------------------------------------
// polaris.transactions
// ---------------------------------------------------------------------------

/// Active transactions: catalog registration (id, snapshot ts, age)
/// enriched with the engine's live execution stats (phase, statements,
/// tables touched, allocation totals). Catalog-internal transactions with
/// no user [`crate::Transaction`] wrapper report phase `catalog`.
struct TransactionsTable(Weak<PolarisEngine>);

impl SystemTableProvider for TransactionsTable {
    fn name(&self) -> &'static str {
        "transactions"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("txn_id", DataType::Int64),
            Field::new("snapshot_ts", DataType::Int64),
            Field::new("age_ms", DataType::Int64),
            Field::new("phase", DataType::Utf8),
            Field::new("statements", DataType::Int64),
            Field::new("tables_touched", DataType::Int64),
            Field::new("alloc_bytes", DataType::Int64),
            Field::new("allocs", DataType::Int64),
        ])
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let Some(engine) = self.0.upgrade() else {
            return batch(self.schema(), &[]);
        };
        let mut active = engine.catalog().active_txns();
        active.sort_by_key(|(id, _, _)| id.0);
        let rows: Vec<Vec<Value>> = active
            .into_iter()
            .map(|(id, snapshot, age)| {
                // `active` while statements run, `committing` once the
                // commit protocol has started; a catalog transaction no
                // user transaction owns (DDL, STO) is just `catalog`.
                let stat = engine.txn_stat_get(id.0);
                let phase = match &stat {
                    None => "catalog",
                    Some(s) if s.committing.load(Ordering::Relaxed) => "committing",
                    Some(_) => "active",
                };
                let stat = stat.unwrap_or_default();
                let int = |n: &AtomicU64| Value::Int(n.load(Ordering::Relaxed) as i64);
                vec![
                    Value::Int(id.0 as i64),
                    Value::Int(snapshot.0 as i64),
                    Value::Int(age.as_millis() as i64),
                    Value::Str(phase.to_owned()),
                    int(&stat.statements),
                    int(&stat.tables_touched),
                    int(&stat.alloc_bytes),
                    int(&stat.allocs),
                ]
            })
            .collect();
        batch(self.schema(), &rows)
    }
}

// ---------------------------------------------------------------------------
// polaris.commit_shards
// ---------------------------------------------------------------------------

/// Per-shard commit-lock pressure: lifetime hold counts and hold-time
/// quantiles from the catalog meter's sharded histograms.
struct CommitShardsTable(Weak<PolarisEngine>);

impl SystemTableProvider for CommitShardsTable {
    fn name(&self) -> &'static str {
        "commit_shards"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("shard", DataType::Int64),
            Field::new("acquisitions", DataType::Int64),
            Field::new("hold_sum_ns", DataType::Int64),
            Field::new("hold_p50_ns", DataType::Int64),
            Field::new("hold_p95_ns", DataType::Int64),
            Field::new("hold_p99_ns", DataType::Int64),
        ])
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let Some(engine) = self.0.upgrade() else {
            return batch(self.schema(), &[]);
        };
        let rows: Vec<Vec<Value>> = engine
            .catalog()
            .meter()
            .commit_shard_holds
            .iter()
            .enumerate()
            .map(|(shard, hold)| {
                let s = hold.snapshot();
                vec![
                    Value::Int(shard as i64),
                    Value::Int(s.count as i64),
                    Value::Int(s.sum_ns as i64),
                    Value::Int(s.p50_ns as i64),
                    Value::Int(s.p95_ns as i64),
                    Value::Int(s.p99_ns as i64),
                ]
            })
            .collect();
        batch(self.schema(), &rows)
    }
}

// ---------------------------------------------------------------------------
// polaris.lanes
// ---------------------------------------------------------------------------

/// DCP pool occupancy per workload class. The `pool_*` columns are
/// pool-wide lifetime counters (repeated on every row — the pool does not
/// attribute them per class); `exec.*` morsel counters come from the
/// shared registry.
struct LanesTable(Weak<PolarisEngine>);

impl SystemTableProvider for LanesTable {
    fn name(&self) -> &'static str {
        "lanes"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("class", DataType::Utf8),
            Field::new("busy", DataType::Int64),
            Field::new("capacity", DataType::Int64),
            Field::new("alive", DataType::Int64),
            Field::new("pool_task_attempts", DataType::Int64),
            Field::new("pool_task_retries", DataType::Int64),
            Field::new("pool_slot_waits", DataType::Int64),
            Field::new("pool_morsels_scheduled", DataType::Int64),
            Field::new("pool_morsels_stolen", DataType::Int64),
        ])
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let Some(engine) = self.0.upgrade() else {
            return batch(self.schema(), &[]);
        };
        let stats = engine.pool().stats();
        let morsels_scheduled = engine.metrics().counter("exec.morsels_scheduled").get();
        let morsels_stolen = engine.metrics().counter("exec.morsels_stolen").get();
        let rows: Vec<Vec<Value>> = [
            WorkloadClass::Read,
            WorkloadClass::Write,
            WorkloadClass::System,
        ]
        .into_iter()
        .map(|class| {
            vec![
                Value::Str(format!("{class:?}").to_ascii_lowercase()),
                Value::Int(engine.pool().busy(class) as i64),
                Value::Int(engine.pool().capacity(class) as i64),
                Value::Int(engine.pool().alive_count(class) as i64),
                Value::Int(stats.attempts as i64),
                Value::Int(stats.retries as i64),
                Value::Int(stats.slot_waits as i64),
                Value::Int(morsels_scheduled as i64),
                Value::Int(morsels_stolen as i64),
            ]
        })
        .collect();
        batch(self.schema(), &rows)
    }
}

// ---------------------------------------------------------------------------
// polaris.wal
// ---------------------------------------------------------------------------

/// One row summarizing the durable commit log: segment/append/checkpoint
/// counters from the `wal.*` / `recovery.*` registry names plus the last
/// recovery's replay watermark. All zeros (with `enabled = false`) when
/// durability is off.
struct WalTable(Weak<PolarisEngine>);

impl SystemTableProvider for WalTable {
    fn name(&self) -> &'static str {
        "wal"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("enabled", DataType::Bool),
            Field::new("segments", DataType::Int64),
            Field::new("appends", DataType::Int64),
            Field::new("bytes", DataType::Int64),
            Field::new("checkpoints", DataType::Int64),
            Field::new("segments_pruned", DataType::Int64),
            Field::new("replayed_batches", DataType::Int64),
            Field::new("replayed_commits", DataType::Int64),
            Field::new("torn_records", DataType::Int64),
            Field::new("orphans_collected", DataType::Int64),
            Field::new("checkpoint_clock", DataType::Int64),
            Field::new("replay_watermark", DataType::Int64),
        ])
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let Some(engine) = self.0.upgrade() else {
            return batch(self.schema(), &[]);
        };
        let c = |name: &str| Value::Int(engine.metrics().counter(name).get() as i64);
        let report = engine.recovery_report();
        let rows = vec![vec![
            Value::Bool(engine.commit_log_writer().is_some()),
            c("wal.segments"),
            c("wal.appends"),
            c("wal.bytes"),
            c("wal.checkpoints"),
            c("wal.segments_pruned"),
            c("recovery.replayed_batches"),
            c("recovery.replayed_commits"),
            c("recovery.torn_records"),
            c("recovery.orphans_collected"),
            Value::Int(
                report
                    .as_ref()
                    .map(|r| r.checkpoint_clock as i64)
                    .unwrap_or(0),
            ),
            Value::Int(
                report
                    .as_ref()
                    .map(|r| r.recovered_clock as i64)
                    .unwrap_or(0),
            ),
        ]];
        batch(self.schema(), &rows)
    }
}

// ---------------------------------------------------------------------------
// polaris.trace_spans
// ---------------------------------------------------------------------------

/// The trace flight-recorder ring decoded to rows, one per reconstructed
/// span. `query_id` / `txn` surface those attributes where a span carries
/// them (statement roots and transaction roots respectively; 0 elsewhere),
/// so slow-log rows join to their span trees. Empty when tracing is
/// disabled.
struct TraceSpansTable(Weak<PolarisEngine>);

impl SystemTableProvider for TraceSpansTable {
    fn name(&self) -> &'static str {
        "trace_spans"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("span_id", DataType::Int64),
            Field::new("parent_span", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("start_ns", DataType::Int64),
            Field::new("dur_ns", DataType::Int64),
            Field::new("lane", DataType::Int64),
            Field::new("txn", DataType::Int64),
            Field::new("query_id", DataType::Int64),
            Field::new("attrs", DataType::Utf8),
        ])
    }

    fn scan(&self) -> ExecResult<RecordBatch> {
        let Some(engine) = self.0.upgrade() else {
            return batch(self.schema(), &[]);
        };
        let events = engine.tracer().events();
        let rows: Vec<Vec<Value>> = build_spans(&events)
            .values()
            .map(|span| {
                let attrs = span
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("{k}={}", attr_to_string(v)))
                    .collect::<Vec<_>>()
                    .join(",");
                vec![
                    Value::Int(span.id as i64),
                    Value::Int(span.parent as i64),
                    Value::Str(span.name.clone()),
                    Value::Int(span.start_ns as i64),
                    Value::Int(span.duration_ns() as i64),
                    Value::Int(span.tid as i64),
                    Value::Int(attr_u64(span.attr("txn"))),
                    Value::Int(attr_u64(span.attr("query_id"))),
                    Value::Str(attrs),
                ]
            })
            .collect();
        batch(self.schema(), &rows)
    }
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
        let (base, labels) = split_labels("catalog.commit_lock_hold_ns{shard=\"3\"}");
        assert_eq!(base, "catalog.commit_lock_hold_ns");
        assert_eq!(labels, "shard=3");
    }

    #[test]
    fn every_table_scans_and_is_schema_stable() {
        let engine = PolarisEngine::in_memory();
        let tables = engine.system_tables();
        assert_eq!(tables.names().len(), 9);
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
