//! Trace round-trip under fault injection: a multi-statement transaction
//! over a `FaultyStore` leaves a structurally sound span log whose retry
//! accounting agrees with the compute pool's meter, and `EXPLAIN ANALYZE`
//! renders a tree whose phase timings cover the statement wall clock.

use polaris_core::{DataType, EngineConfig, Field, PolarisEngine, Schema, StatementOutcome};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_obs::{build_spans, AttrValue, TraceEventKind};
use polaris_store::{FaultyStore, MemoryStore, ObjectStore};
use std::collections::HashSet;
use std::sync::Arc;

fn values_sql(range: std::ops::Range<i64>) -> String {
    let rows: Vec<String> = range.map(|i| format!("({i}, {})", i * 2)).collect();
    format!("INSERT INTO t VALUES {}", rows.join(","))
}

#[test]
fn multi_statement_txn_trace_survives_faults_and_matches_pool_meter() {
    // One in four writes fails with a transient error while the statements
    // run; write tasks must retry (§4.3). The rate drops to zero before
    // COMMIT so the FE's unretried commit writes stay deterministic.
    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), 0.0, 20240806));
    let store: Arc<dyn ObjectStore> = Arc::clone(&faulty) as Arc<dyn ObjectStore>;

    let mut pool = ComputePool::with_topology(4, 4, 2);
    pool.set_max_attempts(20);
    let pool = Arc::new(pool);
    pool.add_nodes(WorkloadClass::System, 2, 2);

    let mut config = EngineConfig::for_testing();
    config.distributions = 8;
    let engine = PolarisEngine::new(store, pool, config);
    faulty.bind_metrics(engine.metrics());
    faulty.bind_tracer(engine.tracer());

    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();

    // Statement-time faults can also hit the FE's unretried manifest
    // writes, failing the whole statement; the application-level contract
    // (§3) is that the user transaction is retried. Loop until one attempt
    // gets all statements through — each failed attempt still contributes
    // dcp.task retry spans to the trace under test. The INSERTs run under
    // heavy faults (their writes go through retried BE tasks; the FE does
    // one unretried commit each); the UPDATE's manifest rewrite stages
    // ~20 unretried FE blocks, so it gets a gentler schedule.
    // Two victim write nodes die while the transaction's write tasks are
    // in flight; any attempt caught on them reports NodeLost and is
    // retried elsewhere. (Whether a task is actually caught is a race —
    // the structural assertions below hold either way.)
    let victims = engine.pool().add_nodes(WorkloadClass::Write, 2, 1);
    let killer = {
        let pool = Arc::clone(engine.pool());
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            for id in victims {
                pool.kill_node(id);
            }
        })
    };

    let mut committed = false;
    for _ in 0..50 {
        s.execute("BEGIN").unwrap();
        let worked = (|s: &mut polaris_core::Session| {
            faulty.set_write_failure_rate(0.25);
            s.execute(&values_sql(0..256))?;
            s.execute(&values_sql(256..512))?;
            faulty.set_write_failure_rate(0.02);
            s.execute("UPDATE t SET v = 0 WHERE k < 32")?;
            s.execute("SELECT COUNT(*) AS n FROM t")
        })(&mut s);
        faulty.set_write_failure_rate(0.0);
        match worked {
            Ok(StatementOutcome::Rows(batch)) => {
                assert_eq!(batch.row(0)[0].as_int(), Some(512));
                s.execute("COMMIT").unwrap();
                committed = true;
                break;
            }
            Ok(other) => panic!("expected rows, got {other:?}"),
            Err(_) => {
                s.execute("ROLLBACK").unwrap();
            }
        }
    }
    assert!(committed, "the transaction must eventually commit");
    killer.join().unwrap();

    let (write_faults, _) = faulty.injected_faults();
    assert!(
        write_faults > 0,
        "the fault schedule must actually fire to make this test meaningful"
    );

    let events = engine.tracer().events();
    let spans = build_spans(&events);

    // Structural soundness: every Begin has a matching End (no span leaks
    // across commit), and parent chains are acyclic and resolve within the
    // snapshot.
    for span in spans.values() {
        assert!(
            span.end_ns.is_some(),
            "span {} ({}) never ended",
            span.id,
            span.name
        );
        let mut visited = HashSet::new();
        let mut cursor = span.id;
        while cursor != 0 {
            assert!(
                visited.insert(cursor),
                "cycle in parent chain starting at span {}",
                span.id
            );
            cursor = spans
                .get(&cursor)
                .unwrap_or_else(|| panic!("span {cursor} referenced but not retained"))
                .parent;
        }
    }

    // Retry accounting: one `dcp.task` span per attempt, so the trace and
    // the pool meter must count the same work.
    let stats = engine.pool().stats();
    let task_spans: Vec<_> = spans.values().filter(|s| s.name == "dcp.task").collect();
    assert_eq!(
        task_spans.len() as u64,
        stats.attempts,
        "every task attempt must leave exactly one dcp.task span"
    );
    let retry_spans = task_spans
        .iter()
        .filter(|s| matches!(s.attr("attempt"), Some(AttrValue::U64(a)) if *a > 0))
        .count();
    assert_eq!(
        retry_spans as u64, stats.retries,
        "trace retry spans must equal the pool meter's retry count"
    );
    assert!(
        stats.retries > 0,
        "injected write faults must force at least one task retry"
    );

    // Every injected fault surfaced as an instant event in the ring.
    let fault_instants = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Instant && e.name == "store.injected_fault")
        .count();
    assert_eq!(fault_instants as u64, write_faults);

    // The explicit transaction's root span committed and carries its
    // statements as children.
    let txn_roots: Vec<_> = spans
        .values()
        .filter(|s| {
            s.name == "txn"
                && matches!(s.attr("outcome"), Some(AttrValue::Str(o)) if o == "committed")
        })
        .collect();
    assert!(!txn_roots.is_empty(), "committed txn roots must be traced");
    let multi = txn_roots
        .iter()
        .find(|root| {
            spans
                .values()
                .filter(|s| s.parent == root.id)
                .filter(|s| s.name.starts_with("insert") || s.name.starts_with("update"))
                .count()
                >= 3
        })
        .expect("the explicit txn must parent its insert/update statements");
    assert!(
        spans
            .values()
            .any(|s| s.parent == multi.id && s.name == "txn.commit"),
        "the commit protocol must span under the txn root"
    );
}

/// A one-row INSERT is two one-task DAGs — write, publish — that the
/// pool runs on the session's own thread. Their `dcp.task` spans still sit
/// on a Write node's lane (the slot the attempt held), under the statement
/// and the commit, with the store calls of the body nested inside.
#[test]
fn caller_run_attempts_trace_like_lane_attempts() {
    let engine = PolarisEngine::in_memory();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
    let attempts = engine.pool().stats().attempts;
    s.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    assert_eq!(engine.pool().stats().attempts, attempts + 2);

    let spans = build_spans(&engine.tracer().events());
    let tasks: Vec<_> = spans.values().filter(|s| s.name == "dcp.task").collect();
    let parents: Vec<&str> = tasks
        .iter()
        .map(|t| spans[&t.parent].name.as_str())
        .collect();
    assert_eq!(parents, ["insert t", "txn.commit"]);
    for (task, store_call) in tasks
        .iter()
        .zip(["store.stage_block", "store.commit_block_list"])
    {
        assert!(
            matches!(task.attr("node"), Some(AttrValue::U64(n)) if *n == task.tid),
            "on the lane of the node whose slot it held: {task:?}"
        );
        assert!(
            spans
                .values()
                .any(|s| s.parent == task.id && s.name == store_call),
            "{store_call} must nest under its attempt"
        );
    }
    // The statement and its store calls ran on one lane: the session's.
    let lane = |name: &str| spans.values().find(|s| s.name == name).unwrap().tid;
    assert_eq!(lane("store.stage_block"), lane("insert t"));
    assert_eq!(lane("store.commit_block_list"), lane("txn.commit"));
}

#[test]
fn explain_analyze_renders_pruned_scan_with_phase_timings() {
    let engine = PolarisEngine::in_memory();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    engine
        .create_table_clustered("t", &schema, &["k".to_owned()])
        .unwrap();
    let mut s = engine.session();
    s.execute(&values_sql(0..512)).unwrap();

    let batch = s
        .query("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM t WHERE k >= 16 AND k < 32")
        .unwrap();
    assert_eq!(batch.schema().fields()[0].name, "plan");
    let plan: Vec<String> = (0..batch.num_rows())
        .map(|i| batch.row(i)[0].as_str().unwrap().to_owned())
        .collect();
    let text = plan.join("\n");

    // The tree shows the whole auto-commit transaction: root, statement,
    // scans, and the commit protocol.
    assert!(text.contains("txn"), "missing txn root:\n{text}");
    assert!(text.contains("select t"), "missing statement span:\n{text}");
    assert!(
        text.contains("exec.morsel"),
        "missing morsel spans:\n{text}"
    );
    assert!(
        text.contains("morsels: "),
        "missing morsel summary line:\n{text}"
    );
    assert!(text.contains("catalog.validate"), "missing commit:\n{text}");
    assert!(
        text.contains("phase execute"),
        "missing phase line:\n{text}"
    );

    // Pruning statistics: the clustered layout must let the range
    // predicate skip files, and the summary must say so.
    let profile = s.last_profile().expect("explain analyze leaves a profile");
    assert!(profile.files_pruned > 0, "range scan must prune files");
    assert!(text.contains(&format!(
        "files: {} scanned, {} pruned",
        profile.files_scanned, profile.files_pruned
    )));

    // Execute and commit cover the statement wall clock ("execute" is
    // measured around the whole statement, "commit" is added on top), in
    // the profile and in the rendered lines alike.
    assert!(profile.commit_ns > 0 && profile.commit_ns < profile.wall_ns);
    let ms = |prefix: &str| -> f64 {
        let line = plan.iter().find(|l| l.starts_with(prefix)).unwrap();
        let rest = &line[prefix.len()..];
        rest.trim_start_matches(|c: char| !c.is_ascii_digit())
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let (wall, execute, commit) = (
        ms("statement: select t"),
        ms("  phase execute:"),
        ms("  phase commit:"),
    );
    assert!(
        (execute + commit - wall).abs() <= 0.002,
        "execute {execute} + commit {commit} must sum to the wall {wall} ms:\n{text}"
    );
    assert!(text.contains("memory: "), "missing memory line:\n{text}");

    // Statements inside an explicit transaction render their own subtree
    // (commit has not happened yet).
    s.execute("BEGIN").unwrap();
    let batch = s
        .query("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM t WHERE k < 8")
        .unwrap();
    let text: Vec<String> = (0..batch.num_rows())
        .map(|i| batch.row(i)[0].as_str().unwrap().to_owned())
        .collect();
    let text = text.join("\n");
    assert!(text.contains("select t"));
    assert!(
        !text.contains("txn.commit"),
        "open txn must not show a commit span:\n{text}"
    );
    s.execute("COMMIT").unwrap();

    // EXPLAIN ANALYZE refuses what the session cannot trace.
    assert!(s.execute("EXPLAIN ANALYZE COMMIT").is_err());
    assert!(s.execute("EXPLAIN ANALYZE DROP TABLE t").is_err());
}
