//! Golden schema test: the JSON shape of [`MetricsSnapshot`] is consumed by
//! external tooling (artifact diffs, dashboards), so drift must fail
//! loudly. The export is deserialized twice: back into the real type
//! (round-trip), and into independently declared mirror structs that pin
//! the field names and types a consumer would write against. The
//! harvester's rings have no export of their own — `polaris.metrics_history`
//! serves them — so their half checks the points directly.

use polaris_obs::{Harvester, MetricsRegistry, MetricsSnapshot, HIST_BUCKETS};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The histogram shape a consumer depends on.
#[derive(Debug, Default, Deserialize)]
#[serde(default)]
struct HistogramSchema {
    count: u64,
    sum_ns: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    buckets: Vec<u64>,
}

/// The metrics-snapshot shape a consumer depends on.
#[derive(Debug, Default, Deserialize)]
#[serde(default)]
struct MetricsSchema {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSchema>,
}

/// A registry with one metric of each kind and known values.
fn seeded_registry() -> Arc<MetricsRegistry> {
    let registry = MetricsRegistry::new();
    registry.counter("catalog.commits").add(42);
    registry.gauge("dcp.lanes.write_busy").set(3);
    let h = registry.histogram("catalog.commit_latency_ns");
    h.record_ns(900); // bucket 0 (< 1000)
    h.record_ns(1_500); // bucket 1 (< 2000)
    h.record_ns(1_500_000);
    registry
}

#[test]
fn metrics_snapshot_round_trips_through_json() {
    let snap = seeded_registry().snapshot();
    let json = snap.to_json_pretty();
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("round-trip parse");
    assert_eq!(back.counter("catalog.commits"), 42);
    assert_eq!(back.gauges["dcp.lanes.write_busy"], 3);
    let hist = &back.histograms["catalog.commit_latency_ns"];
    assert_eq!(hist.count, 3);
    assert_eq!(
        hist.sum_ns,
        snap.histograms["catalog.commit_latency_ns"].sum_ns
    );
    assert_eq!(
        hist.buckets,
        snap.histograms["catalog.commit_latency_ns"].buckets
    );
}

#[test]
fn metrics_snapshot_matches_consumer_schema() {
    let json = seeded_registry().snapshot().to_json_pretty();
    let schema: MetricsSchema = serde_json::from_str(&json).expect("schema parse");
    assert_eq!(schema.counters["catalog.commits"], 42);
    assert_eq!(schema.gauges["dcp.lanes.write_busy"], 3);
    let hist = &schema.histograms["catalog.commit_latency_ns"];
    assert_eq!(hist.count, 3);
    assert_eq!(hist.sum_ns, 900 + 1_500 + 1_500_000);
    assert_eq!(
        hist.buckets.len(),
        HIST_BUCKETS,
        "bucket vector must expose every bucket, including overflow"
    );
    assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
    assert!(hist.p50_ns <= hist.p95_ns && hist.p95_ns <= hist.p99_ns);
}

#[test]
fn time_series_points_are_per_tick_and_aligned() {
    let registry = seeded_registry();
    let harvester = Harvester::detached(Arc::clone(&registry), Duration::from_millis(50), 4);
    harvester.run_once();
    harvester.run_once();
    let series = harvester.time_series();
    assert_eq!(series.rates["catalog.commits"].len(), 2);
    assert_eq!(series.gauges["dcp.lanes.write_busy"].len(), 2);
    // The gauge level survives as a float sample.
    assert!(series.gauges["dcp.lanes.write_busy"]
        .iter()
        .all(|p| (p.value - 3.0).abs() < 1e-9));
    let q = &series.quantiles["catalog.commit_latency_ns"];
    assert_eq!(q.len(), 2);
    // All three samples arrived before tick 1; tick 2 saw nothing.
    assert_eq!(q[0].count, 3);
    assert_eq!(q[1].count, 0);
    assert!(q[0].p50_ns <= q[0].p95_ns && q[0].p95_ns <= q[0].p99_ns);
    // Points carry monotone timestamps, consistent across series.
    let t: Vec<u64> = series.rates["catalog.commits"]
        .iter()
        .map(|p| p.t_ms)
        .collect();
    assert!(t.windows(2).all(|w| w[0] <= w[1]));
    assert!(q.iter().map(|p| p.t_ms).eq(t.iter().copied()));
}
