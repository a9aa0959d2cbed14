//! Watchdog integration: the engine's stall rules fire real
//! `polaris.watchdog_events` rows — exactly once per episode, with a trace
//! post-mortem attached — and hold `watchdog.firing{rule=…}` at 1 for as
//! long as the episode lasts, under deterministic manual harvester ticks
//! (`telemetry_tick_ms = 0` + `PolarisEngine::telemetry_tick_once`).

use polaris_core::{EngineConfig, PolarisEngine, Value};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{LatencyModel, MemoryStore, ObjectStore, Request, SimStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn engine_with(config: EngineConfig) -> Arc<PolarisEngine> {
    engine_on(Arc::new(MemoryStore::new()), config)
}

fn engine_on(store: Arc<dyn ObjectStore>, config: EngineConfig) -> Arc<PolarisEngine> {
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    PolarisEngine::new(store, pool, config)
}

fn text(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(detail, trace_dump)` of every retained firing of `rule`.
fn events_for(engine: &Arc<PolarisEngine>, rule: &str) -> Vec<(String, String)> {
    let batch = engine
        .session()
        .query(&format!(
            "SELECT detail, trace_dump FROM polaris.watchdog_events WHERE rule = '{rule}'"
        ))
        .unwrap();
    (0..batch.num_rows())
        .map(|i| (text(&batch.row(i)[0]), text(&batch.row(i)[1])))
        .collect()
}

/// The rules whose `watchdog.firing` gauge reads 1.
fn firing(engine: &Arc<PolarisEngine>) -> Vec<String> {
    let batch = engine
        .session()
        .query("SELECT labels FROM polaris.metrics WHERE name = 'watchdog.firing' AND value = 1")
        .unwrap();
    (0..batch.num_rows())
        .map(|i| text(&batch.row(i)[0]))
        .collect()
}

#[test]
fn gc_watermark_rule_fires_once_for_a_pinning_txn() {
    let mut config = EngineConfig::for_testing();
    config.watchdog_txn_deadline_ms = 30;
    let engine = engine_with(config);
    let mut session = engine.session();
    session.execute("CREATE TABLE t (id BIGINT)").unwrap();
    session.execute("INSERT INTO t VALUES (1), (2)").unwrap();

    // A healthy tick first: nothing is old yet.
    engine.telemetry_tick_once();
    assert!(events_for(&engine, "gc-watermark").is_empty());

    // Open a transaction and let it age past the deadline. It pins the GC
    // watermark the whole time (min_active_snapshot cannot advance).
    let txn = engine.begin();
    let txn_id = txn.id();
    std::thread::sleep(Duration::from_millis(50));

    engine.telemetry_tick_once();
    let fired = events_for(&engine, "gc-watermark");
    assert_eq!(fired.len(), 1, "rule fires on the rising edge");
    let (detail, trace_dump) = &fired[0];
    assert!(
        detail.contains(&txn_id.to_string()),
        "event names the pinning txn: {detail}"
    );
    assert!(
        detail.contains("GC watermark"),
        "event explains the consequence: {detail}"
    );
    assert!(
        !trace_dump.is_empty(),
        "firing captures a trace post-mortem"
    );

    // The condition persists — more ticks must NOT re-fire.
    engine.telemetry_tick_once();
    engine.telemetry_tick_once();
    assert_eq!(events_for(&engine, "gc-watermark").len(), 1);
    assert_eq!(firing(&engine), ["rule=gc-watermark"]);

    // Resolving the transaction re-arms the rule and clears its gauge.
    txn.rollback();
    engine.telemetry_tick_once();
    assert!(firing(&engine).is_empty());
    assert_eq!(
        events_for(&engine, "gc-watermark").len(),
        1,
        "clearing does not append events"
    );
}

/// A commit-log hook that parks every batch on a gate until released.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    entered: u32,
    open: bool,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        })
    }

    /// Block until the gate opens; counts entries so the test can wait
    /// for the leader to be provably stuck inside the hook.
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.entered += 1;
        self.cv.notify_all();
        while !state.open {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn wait_entered(&self) {
        let mut state = self.state.lock().unwrap();
        while state.entered == 0 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }
}

#[test]
fn group_commit_stall_rule_fires_when_queue_parks() {
    let mut config = EngineConfig::for_testing();
    config.group_commit_max_batch = 2;
    config.group_commit_window_us = 0;
    config.watchdog_queue_stall_ticks = 2;
    let engine = engine_with(config);
    let mut session = engine.session();
    session.execute("CREATE TABLE t (id BIGINT)").unwrap();

    // Install the blocking commit log only after DDL, or setup would park.
    let gate = Gate::new();
    {
        let gate = Arc::clone(&gate);
        engine
            .catalog()
            .set_commit_log(Some(Arc::new(move |_records| {
                gate.pass();
                Ok(())
            })));
    }

    // Leader: commits first, drains itself into a batch, then blocks
    // inside the commit-log hook.
    let leader = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let mut s = engine.session();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
        })
    };
    gate.wait_entered();

    // Followers: enqueue behind the stuck leader and park on the group
    // condvar — the queue depth the stall rule watches.
    let followers: Vec<_> = (2..4i64)
        .map(|i| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut s = engine.session();
                s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.catalog().group_queue_depth() < 2 {
        assert!(Instant::now() < deadline, "followers never enqueued");
        std::thread::sleep(Duration::from_millis(1));
    }

    // One tick of a parked queue is not yet a stall…
    engine.telemetry_tick_once();
    assert!(events_for(&engine, "group-commit-stall").is_empty());
    // …two consecutive ticks are.
    engine.telemetry_tick_once();
    let fired = events_for(&engine, "group-commit-stall");
    assert_eq!(fired.len(), 1, "stall fires after the configured ticks");
    assert!(fired[0].0.contains("not draining"), "{}", fired[0].0);
    assert!(!fired[0].1.is_empty());
    assert_eq!(firing(&engine), ["rule=group-commit-stall"]);

    // Still parked: no duplicate events.
    engine.telemetry_tick_once();
    assert_eq!(events_for(&engine, "group-commit-stall").len(), 1);

    // Release the gate: everyone publishes, the queue drains, the rule
    // clears, and no commit was lost to the stall.
    gate.open();
    leader.join().unwrap();
    for f in followers {
        f.join().unwrap();
    }
    engine.telemetry_tick_once();
    assert!(firing(&engine).is_empty());
    let rows = session.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rows.row(0)[0], polaris_core::Value::Int(3));
}

#[test]
fn commit_lock_hold_rule_fires_on_a_slow_prepare() {
    // While `slow` is set, every manifest publish — the `commit_block_list`
    // an UPDATE issues in its prepare stage, with the commit lock held —
    // takes longer than the rule's 1 s threshold.
    let slow = Arc::new(AtomicBool::new(false));
    let tap = {
        let slow = Arc::clone(&slow);
        move |r: Request<'_>| {
            if r.op == "commit_block_list" && slow.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1_100));
            }
        }
    };
    let store = Arc::new(SimStore::new(MemoryStore::new(), LatencyModel::ZERO).with_tap(tap));
    let engine = engine_on(store, EngineConfig::for_testing());
    let mut session = engine.session();
    session.execute("CREATE TABLE t (id BIGINT)").unwrap();
    session.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    engine.telemetry_tick_once();

    // A fast UPDATE holds the lock for well under the threshold.
    session.execute("UPDATE t SET id = 3 WHERE id = 1").unwrap();
    engine.telemetry_tick_once();
    assert!(events_for(&engine, "commit-lock-hold").is_empty());

    // A slow one fires the rule on the next tick.
    slow.store(true, Ordering::SeqCst);
    session.execute("UPDATE t SET id = 4 WHERE id = 2").unwrap();
    slow.store(false, Ordering::SeqCst);
    engine.telemetry_tick_once();
    let fired = events_for(&engine, "commit-lock-hold");
    assert_eq!(fired.len(), 1, "one event for the slow hold");
    assert_eq!(firing(&engine), ["rule=commit-lock-hold"]);

    // A fast UPDATE after it adds none, and clears the rule.
    session.execute("UPDATE t SET id = 5 WHERE id = 3").unwrap();
    engine.telemetry_tick_once();
    assert_eq!(events_for(&engine, "commit-lock-hold").len(), 1);
    assert!(firing(&engine).is_empty());
}
