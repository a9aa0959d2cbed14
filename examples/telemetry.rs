//! Continuous telemetry: the Prometheus endpoint, the harvester, the
//! watchdog, and `SHOW ENGINE HEALTH`.
//!
//! ```sh
//! cargo run --example telemetry                       # self-scrape and exit
//! cargo run --example telemetry 127.0.0.1:9184 30000  # serve for 30 s
//! curl http://127.0.0.1:9184/metrics
//! curl http://127.0.0.1:9184/health
//! ```
//!
//! First argument: listen address (default `127.0.0.1:0`, OS-assigned
//! port). Second argument: how long to keep serving after the workload,
//! in milliseconds (default 0 — scrape once and exit).

use polaris::core::{EngineConfig, PolarisEngine, StatementOutcome};
use polaris::dcp::{ComputePool, WorkloadClass};
use polaris::obs::http_get;
use polaris::store::MemoryStore;
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let listen: std::net::SocketAddr = args
        .next()
        .unwrap_or_else(|| "127.0.0.1:0".to_owned())
        .parse()
        .expect("listen address like 127.0.0.1:9184");
    let hold_ms: u64 = args
        .next()
        .map(|a| a.parse().expect("hold milliseconds"))
        .unwrap_or(0);

    let mut config = EngineConfig::for_testing();
    config.telemetry_listen = Some(listen);
    config.telemetry_tick_ms = 25; // real harvester thread, 40 Hz
    config.slow_statement_ms = 0; // log every statement, for the demo
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    let engine = PolarisEngine::new(Arc::new(MemoryStore::new()), pool, config);
    let addr = engine.telemetry_addr().expect("endpoint bound");
    println!("telemetry endpoint: http://{addr}/metrics and /health");

    // A small workload so the scrape has something to show.
    let mut session = engine.session();
    session
        .execute("CREATE TABLE trips (id BIGINT, city VARCHAR, miles FLOAT)")
        .unwrap();
    for round in 0..5i64 {
        session
            .execute(&format!(
                "INSERT INTO trips VALUES ({}, 'seattle', 12.5), ({}, 'redmond', 3.2)",
                round * 2 + 1,
                round * 2 + 2
            ))
            .unwrap();
        session
            .query("SELECT city, COUNT(*) AS n FROM trips GROUP BY city")
            .unwrap();
    }

    // The SQL surface of the same telemetry.
    println!();
    if let StatementOutcome::Rows(batch) = session.execute("SHOW ENGINE HEALTH").unwrap() {
        for i in 0..batch.num_rows() {
            println!("{}", batch.row(i)[0]);
        }
    }

    // Self-scrape over real HTTP, like any Prometheus server would.
    let (status, body) = http_get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    println!();
    println!("GET /metrics -> {status}, {} bytes; e.g.:", body.len());
    for line in body
        .lines()
        .filter(|l| l.starts_with("catalog_commits_total") || l.starts_with("dcp_tasks"))
        .take(4)
    {
        println!("  {line}");
    }
    let (status, health) = http_get(addr, "/health").expect("GET /health");
    println!("GET /health -> {status}:");
    println!("{health}");

    if hold_ms > 0 {
        println!();
        println!("serving for {hold_ms} ms — curl me");
        std::thread::sleep(std::time::Duration::from_millis(hold_ms));
    }
}
