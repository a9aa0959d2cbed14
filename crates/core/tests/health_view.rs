//! One model of engine state: `GET /health` and `SHOW ENGINE HEALTH` are
//! the exported [`HEALTH_QUERIES`] over `polaris.*` and nothing else. On a
//! durable engine with manual ticks, one firing rule, one slow statement
//! and one open transaction, every section of both renderings equals, cell
//! for cell, what a `Session` returns for the same SQL text — and the
//! status follows the `gc-watermark` episode.

use polaris_core::{EngineConfig, PolarisEngine, RecordBatch, Value, HEALTH_QUERIES};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_obs::http_get;
use polaris_store::{LatencyModel, LatencyStore, MemoryStore, ObjectStore};
use std::sync::Arc;
use std::time::Duration;

/// The rows of one section as `column=value` cells, strings quoted — the
/// form `SHOW ENGINE HEALTH` prints.
type Rows = Vec<Vec<String>>;

fn rows_of_batch(batch: &RecordBatch) -> Rows {
    (0..batch.num_rows())
        .map(|i| {
            let fields = batch.schema().fields().iter();
            fields
                .zip(batch.row(i))
                .map(|(field, value)| match value {
                    Value::Str(s) => format!("{}={s:?}", field.name),
                    other => format!("{}={other}", field.name),
                })
                .collect()
        })
        .collect()
}

fn rows_of_json(section: &serde_json::Value) -> Rows {
    let rows = section.as_array().expect("a section is an array of rows");
    rows.iter()
        .map(|row| {
            let cells = row.as_object().expect("a row is an object").iter();
            cells
                .map(|(name, value)| match value {
                    serde_json::Value::String(s) => format!("{name}={s:?}"),
                    serde_json::Value::Float(f) => format!("{name}={f}"),
                    serde_json::Value::Bool(b) => format!("{name}={b}"),
                    other => format!("{name}={}", other.as_i64().expect("an integer")),
                })
                .collect()
        })
        .collect()
}

/// Split `a=1 b="x y" c=2` into cells; a space inside quotes is data.
fn cells_of_line(line: &str) -> Vec<String> {
    let (mut cells, mut cell) = (Vec::new(), String::new());
    let (mut quoted, mut escaped) = (false, false);
    for c in line.chars() {
        if c == ' ' && !quoted {
            cells.push(std::mem::take(&mut cell));
            continue;
        }
        quoted ^= c == '"' && !escaped;
        escaped = c == '\\' && !escaped;
        cell.push(c);
    }
    cells.push(cell);
    cells
}

fn rows_of_text(lines: &[String], section: &str) -> Rows {
    let prefix = format!("{section}: ");
    lines
        .iter()
        .filter_map(|line| line.strip_prefix(&prefix))
        .filter(|rest| *rest != "none")
        .map(cells_of_line)
        .collect()
}

/// Blank what two reads a moment apart cannot agree on: uptime, the age of
/// a transaction, and each reader's own transaction (a different one per
/// reader — only `open_txn` is common to all).
fn comparable(section: &str, mut rows: Rows, open_txn: u64) -> Rows {
    if section == "transactions" {
        assert_eq!(rows.len(), 2, "the open transaction and the reader's own");
        rows.retain(|row| row[0] == format!("txn_id={open_txn}"));
    }
    for row in &mut rows {
        let uptime = row[0] == "name=\"uptime_seconds\"";
        for cell in row {
            if cell.starts_with("age_ms=") || (uptime && cell.starts_with("value=")) {
                cell.truncate(cell.find('=').expect("a cell has a name") + 1);
            }
        }
    }
    rows
}

fn show_engine_health(engine: &Arc<PolarisEngine>) -> Vec<String> {
    let batch = engine.session().query("SHOW ENGINE HEALTH").unwrap();
    (0..batch.num_rows())
        .map(|i| batch.row(i)[0].to_string())
        .collect()
}

fn get_health(engine: &Arc<PolarisEngine>) -> serde_json::Value {
    let addr = engine.telemetry_addr().expect("endpoint bound");
    let (status, body) = http_get(addr, "/health").expect("GET /health");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("/health is JSON")
}

fn assert_status(engine: &Arc<PolarisEngine>, status: &str) {
    assert_eq!(get_health(engine)["status"], status);
    assert_eq!(show_engine_health(engine)[0], format!("status: {status}"));
}

#[test]
fn health_renderings_are_the_exported_queries() {
    // 10 ms per store request: an INSERT is slow, a `polaris.*` scan (which
    // never touches the store) is not.
    let latency = LatencyModel {
        per_request: Duration::from_millis(10),
        per_byte: Duration::ZERO,
    };
    let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(MemoryStore::new(), latency));
    let pool = Arc::new(ComputePool::with_topology(2, 2, 2));
    pool.add_nodes(WorkloadClass::System, 1, 2);
    let config = EngineConfig {
        commit_log_enabled: true,
        telemetry_listen: Some("127.0.0.1:0".parse().unwrap()),
        slow_statement_ms: 25,
        watchdog_txn_deadline_ms: 30,
        ..EngineConfig::for_testing()
    };
    let engine = PolarisEngine::open(store, pool, config).unwrap();
    let mut session = engine.session();
    session.execute("CREATE TABLE t (id BIGINT)").unwrap();
    session.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    engine.telemetry_tick_once();
    assert_status(&engine, "ok");

    let txn = engine.begin();
    std::thread::sleep(Duration::from_millis(50));
    engine.telemetry_tick_once();
    assert_status(&engine, "degraded");

    let json = get_health(&engine);
    let text = show_engine_health(&engine);
    let mut keys = vec!["status", "tick_ms", "listen"];
    let mut prefixes = vec!["status", "telemetry"];
    for &(section, sql) in HEALTH_QUERIES {
        keys.push(section);
        prefixes.push(section);
        let expected = comparable(
            section,
            rows_of_batch(&session.query(sql).unwrap()),
            txn.id(),
        );
        assert!(
            !expected.is_empty() || section == "commit_lock",
            "{section} has nothing to compare"
        );
        let from_json = comparable(section, rows_of_json(&json[section]), txn.id());
        assert_eq!(from_json, expected, "/health section {section}");
        let from_text = comparable(section, rows_of_text(&text, section), txn.id());
        assert_eq!(from_text, expected, "SHOW ENGINE HEALTH section {section}");
    }
    // Nothing but the list (and the status / configuration head).
    let json_keys: Vec<&str> = json
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| &**k)
        .collect();
    assert_eq!(json_keys, keys);
    let mut text_prefixes: Vec<&str> = text.iter().map(|l| l.split(':').next().unwrap()).collect();
    text_prefixes.dedup();
    assert_eq!(text_prefixes, prefixes);
    // The scenario is what the sections show.
    assert_eq!(json["firing"][0]["labels"], "rule=gc-watermark");
    assert_eq!(json["events"][0]["rule"], "gc-watermark");
    assert_eq!(json["slow"][0]["statement"], "insert t");
    assert_eq!(json["wal"][0]["enabled"], true);

    txn.rollback();
    engine.telemetry_tick_once();
    assert_status(&engine, "ok");
}
