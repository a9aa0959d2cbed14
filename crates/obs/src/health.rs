//! Stall watchdogs and the slow-transaction log.
//!
//! A production engine has to notice *absence* of progress: a parked
//! group-commit leader, a transaction pinning the GC watermark, a shard
//! lock held for seconds, a maintenance thread that silently died. The
//! [`Watchdog`] holds named rules — stateful closures evaluated once per
//! harvester tick — with **edge-triggered** semantics: a rule fires one
//! [`HealthEvent`] when its condition becomes true and re-arms only after
//! the condition clears, so a stall that persists for a thousand ticks
//! produces one event, not a thousand. Each firing captures an automatic
//! post-mortem dump from the attached [`Tracer`], so the event carries
//! the recent span history that led into the stall.
//!
//! The [`SlowLog`] is the complementary per-request view: a bounded ring
//! of [`SlowRecord`]s (statements and transactions over a threshold, with
//! phase timings and the rendered trace span tree) that
//! `polaris.slow_log` surfaces without grepping logs.

use crate::{Gauge, MetricName, MetricsRegistry, Tracer};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many trace events a watchdog post-mortem captures per firing.
const POST_MORTEM_EVENTS: usize = 64;

/// A stall rule's verdict for one tick: `None` = healthy, `Some(detail)` =
/// stalled (with a human-readable diagnosis).
pub type RuleVerdict = Option<String>;

/// A named stall rule. The closure may keep internal state (previous
/// counter values, consecutive-tick counts) — it is called exactly once
/// per tick, in registration order, with the current tick number.
struct Rule {
    name: String,
    check: Box<dyn FnMut(u64) -> RuleVerdict + Send>,
    /// `watchdog.firing{rule="<name>"}`: 1 while the condition is true.
    /// Set on fire, cleared when the rule next reports healthy; while set
    /// the rule cannot re-fire.
    firing: Gauge,
}

/// One watchdog firing: a structured record of a detected stall plus the
/// trace post-mortem captured at that moment.
#[derive(Clone, Debug)]
pub struct HealthEvent {
    /// Rule name, e.g. `group-commit-stall`.
    pub rule: String,
    /// Human-readable diagnosis from the rule.
    pub detail: String,
    /// Harvester tick at which the rule fired.
    pub tick: u64,
    /// Milliseconds since the watchdog was created.
    pub at_ms: u64,
    /// Post-mortem dump of recent trace events (empty only when tracing
    /// is disabled).
    pub trace_dump: String,
}

/// Evaluates stall rules each tick; owns a bounded ring of fired
/// [`HealthEvent`]s and publishes each rule's state as a
/// `watchdog.firing{rule="…"}` gauge. Create with the engine's [`Tracer`]
/// so firings capture span history.
pub struct Watchdog {
    registry: Arc<MetricsRegistry>,
    rules: Mutex<Vec<Rule>>,
    events: Mutex<VecDeque<HealthEvent>>,
    capacity: usize,
    tracer: Tracer,
    started: Instant,
}

impl Watchdog {
    /// A watchdog retaining at most `capacity` events (oldest dropped).
    pub fn new(registry: Arc<MetricsRegistry>, tracer: Tracer, capacity: usize) -> Self {
        Watchdog {
            registry,
            rules: Mutex::new(Vec::new()),
            events: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            tracer,
            started: Instant::now(),
        }
    }

    /// Register a named rule. Rules run in registration order.
    pub fn add_rule(&self, name: &str, check: impl FnMut(u64) -> RuleVerdict + Send + 'static) {
        let key = MetricName::new("watchdog.firing")
            .and_then(|n| n.with_label("rule", name))
            .expect("literal base and label name")
            .registry_key();
        self.rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Rule {
                name: name.to_owned(),
                check: Box::new(check),
                firing: self.registry.gauge(&key),
            });
    }

    /// Evaluate every rule once for `tick`. Returns the events fired by
    /// this evaluation (they are also appended to the ring).
    pub fn evaluate_once(&self, tick: u64) -> Vec<HealthEvent> {
        let mut fired = Vec::new();
        {
            let mut rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
            for rule in rules.iter_mut() {
                match (rule.check)(tick) {
                    Some(detail) if rule.firing.get() == 0 => {
                        rule.firing.set(1);
                        fired.push(HealthEvent {
                            rule: rule.name.clone(),
                            detail,
                            tick,
                            at_ms: self.started.elapsed().as_millis() as u64,
                            trace_dump: self.tracer.post_mortem(POST_MORTEM_EVENTS),
                        });
                    }
                    Some(_) => {}
                    None => rule.firing.set(0),
                }
            }
        }
        if !fired.is_empty() {
            let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
            for event in &fired {
                if events.len() == self.capacity {
                    events.pop_front();
                }
                events.push_back(event.clone());
            }
        }
        fired
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Names of rules whose condition is true *right now* (fired and not
    /// yet cleared).
    pub fn firing(&self) -> Vec<String> {
        self.rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|r| r.firing.get() == 1)
            .map(|r| r.name.clone())
            .collect()
    }
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("firing", &self.firing())
            .field(
                "events",
                &self.events.lock().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Slow log
// ---------------------------------------------------------------------------

/// One slow statement or transaction, captured when it finished.
#[derive(Clone, Debug, Default)]
pub struct SlowRecord {
    /// `statement` or `transaction`.
    pub kind: String,
    /// Transaction id the work ran under (0 when unknown).
    pub txn: u64,
    /// Statement text / kind, or a commit summary for transactions.
    pub statement: String,
    /// Total wall time, ns.
    pub wall_ns: u64,
    /// Per-phase wall times in execution order.
    pub phases_ns: Vec<(&'static str, u64)>,
    /// Validation outcome rendered as text (`Committed`, `WwConflict`, …).
    pub validation: String,
    /// Heap bytes allocated engine-wide during the work (tracking
    /// allocator builds only; 0 otherwise).
    pub alloc_bytes: u64,
    /// Heap allocations engine-wide during the work.
    pub allocs: u64,
    /// Lock/condvar wait ns attributed while the work ran.
    pub wait_ns: u64,
    /// Rendered trace span tree (empty when tracing is disabled).
    pub span_tree: String,
    /// Stable statement id (0 when unknown, e.g. commit-summary records);
    /// joins against `polaris.trace_spans.query_id`.
    pub query_id: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub at_unix_ms: u64,
}

/// Bounded ring of [`SlowRecord`]s over a fixed threshold. Callers check
/// [`SlowLog::is_slow`] first so the expensive part (rendering a span
/// tree) only happens for offenders.
#[derive(Debug)]
pub struct SlowLog {
    threshold_ns: u64,
    records: Mutex<VecDeque<SlowRecord>>,
    capacity: usize,
}

impl SlowLog {
    /// A slow log keeping at most `capacity` records over `threshold_ns`.
    pub fn new(capacity: usize, threshold_ns: u64) -> Self {
        SlowLog {
            threshold_ns,
            records: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Does `wall_ns` qualify for the log?
    #[inline]
    pub fn is_slow(&self, wall_ns: u64) -> bool {
        wall_ns >= self.threshold_ns
    }

    /// Append `record` if it is over the threshold; returns whether it
    /// was kept.
    pub fn record_if_slow(&self, record: SlowRecord) -> bool {
        if !self.is_slow(record.wall_ns) {
            return false;
        }
        let mut records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        if records.len() == self.capacity {
            records.pop_front();
        }
        records.push_back(record);
        true
    }

    /// All retained records, oldest first.
    pub fn records(&self) -> Vec<SlowRecord> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_fire_once_per_condition_edge() {
        let dog = Watchdog::new(MetricsRegistry::new(), Tracer::disabled(), 8);
        // Stalled on ticks 2..=4 and again on tick 6.
        dog.add_rule("stall", |tick| {
            if (2..=4).contains(&tick) || tick == 6 {
                Some(format!("stalled at tick {tick}"))
            } else {
                None
            }
        });
        let mut fired = Vec::new();
        for tick in 1..=7 {
            fired.extend(dog.evaluate_once(tick));
        }
        let ticks: Vec<u64> = fired.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![2, 6], "one event per rising edge");
        assert_eq!(dog.events().len(), 2);
        assert!(dog.firing().is_empty(), "healthy at tick 7");
    }

    #[test]
    fn firing_reports_active_conditions() {
        let reg = MetricsRegistry::new();
        let dog = Watchdog::new(Arc::clone(&reg), Tracer::disabled(), 8);
        dog.add_rule("always", |_| Some("broken".into()));
        dog.add_rule("never", |_| None);
        dog.evaluate_once(1);
        dog.evaluate_once(2);
        assert_eq!(dog.firing(), vec!["always".to_owned()]);
        assert_eq!(dog.events().len(), 1, "still only the edge event");
        let gauges = reg.snapshot().gauges;
        assert_eq!(gauges["watchdog.firing{rule=\"always\"}"], 1);
        assert_eq!(gauges["watchdog.firing{rule=\"never\"}"], 0);
    }

    #[test]
    fn event_ring_is_bounded() {
        let dog = Watchdog::new(MetricsRegistry::new(), Tracer::disabled(), 2);
        // Alternates stalled/healthy so every stalled tick is an edge.
        dog.add_rule("flappy", |tick| (tick % 2 == 0).then(|| "flap".to_owned()));
        for tick in 1..=10 {
            dog.evaluate_once(tick);
        }
        let events = dog.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].tick, 8);
        assert_eq!(events[1].tick, 10);
    }

    #[test]
    fn firing_captures_trace_post_mortem() {
        let tracer = Tracer::with_capacity(64);
        {
            let _s = tracer.span("catalog.commit");
        }
        let dog = Watchdog::new(MetricsRegistry::new(), tracer, 4);
        dog.add_rule("stall", |_| Some("stuck".into()));
        let fired = dog.evaluate_once(1);
        assert_eq!(fired.len(), 1);
        assert!(
            fired[0].trace_dump.contains("catalog.commit"),
            "post-mortem should include recent spans: {}",
            fired[0].trace_dump
        );
    }

    #[test]
    fn slow_log_thresholds_and_bounds() {
        let log = SlowLog::new(3, 1_000_000);
        assert!(!log.record_if_slow(SlowRecord {
            kind: "statement".into(),
            wall_ns: 999_999,
            ..SlowRecord::default()
        }));
        for i in 0..5u64 {
            assert!(log.record_if_slow(SlowRecord {
                kind: "statement".into(),
                statement: format!("q{i}"),
                wall_ns: 1_000_000 + i,
                ..SlowRecord::default()
            }));
        }
        let kept: Vec<String> = log.records().into_iter().map(|r| r.statement).collect();
        assert_eq!(kept, ["q2", "q3", "q4"], "ring bounded, oldest dropped");
    }
}
