//! The harvester's time-series rings: one point per tick per metric, with
//! aligned timestamps. They have no export of their own —
//! `polaris.metrics_history` serves them — so this checks the points
//! directly.

use polaris_obs::{Harvester, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

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
