//! Stall watchdogs and the slow-transaction log.
//!
//! A production engine has to notice *absence* of progress: a parked
//! group-commit leader, a transaction pinning the GC watermark, the commit
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
//! of the [`QueryProfile`]s of statements and transactions over a
//! threshold, which `polaris.slow_log` surfaces without grepping logs (and
//! joins to `polaris.trace_spans` on `query_id`).

use crate::{Gauge, MetricName, MetricsRegistry, QueryProfile, Tracer};
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

/// One slow statement or transaction: its profile, with what the profile
/// does not know beside it.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// `statement` or `transaction`.
    pub kind: &'static str,
    /// Transaction id the work ran under.
    pub txn: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub at_unix_ms: u64,
    /// The statement's profile; for a transaction, its commit (statement
    /// text a summary, `query_id` 0).
    pub profile: QueryProfile,
}

/// Bounded ring of [`SlowEntry`]s over a fixed threshold.
#[derive(Debug)]
pub struct SlowLog {
    threshold_ns: u64,
    entries: Mutex<VecDeque<SlowEntry>>,
    capacity: usize,
}

impl SlowLog {
    /// A slow log keeping at most `capacity` entries over `threshold_ns`.
    pub fn new(capacity: usize, threshold_ns: u64) -> Self {
        SlowLog {
            threshold_ns,
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Does `wall_ns` qualify for the log?
    #[inline]
    pub fn is_slow(&self, wall_ns: u64) -> bool {
        wall_ns >= self.threshold_ns
    }

    /// Keep a copy of `profile` if its wall time is over the threshold;
    /// returns whether it was kept.
    pub fn record_if_slow(&self, kind: &'static str, txn: u64, profile: &QueryProfile) -> bool {
        if !self.is_slow(profile.wall_ns) {
            return false;
        }
        let entry = SlowEntry {
            kind,
            txn,
            at_unix_ms: unix_now_ms(),
            profile: profile.clone(),
        };
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        true
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// Current wall-clock time, milliseconds since the Unix epoch (0 if the
/// clock reads before the epoch).
fn unix_now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
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
        let fast = QueryProfile {
            wall_ns: 999_999,
            ..QueryProfile::default()
        };
        assert!(!log.record_if_slow("statement", 1, &fast));
        for i in 0..5u64 {
            let slow = QueryProfile {
                statement: format!("q{i}"),
                wall_ns: 1_000_000 + i,
                ..QueryProfile::default()
            };
            assert!(log.record_if_slow("statement", i, &slow));
        }
        let entries = log.entries();
        let kept: Vec<&str> = entries
            .iter()
            .map(|e| e.profile.statement.as_str())
            .collect();
        assert_eq!(kept, ["q2", "q3", "q4"], "ring bounded, oldest dropped");
        assert_eq!(entries[0].txn, 2);
        assert!(entries[0].at_unix_ms > 0, "capture time is stamped");
    }
}
