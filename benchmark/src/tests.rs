//! Smoke and determinism tests: all four workloads at `--quick` size with
//! every output check on.

use super::*;
use std::sync::Mutex;

/// Allocation counting is process-wide state: tests that run workloads take
/// turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn quick(workload: &str, seed: u64, trace: bool) -> RunResult {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    run(workload, seed, 0.0, trace, &Sizes::QUICK).expect("the workload sets up")
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    for workload in WORKLOADS {
        let r = quick(workload, 7, false);
        assert_eq!(r.failed, 0, "{workload}: {:?}", r.notes);
        assert!(r.attempted > 0);
        for (name, _) in metrics::END_TO_END {
            let v = r.metrics.get(name).copied();
            assert!(v.is_some_and(|v| v > 0.0), "{workload} {name} = {v:?}");
        }
        let traced = quick(workload, 7, true);
        assert_eq!(traced.failed, 0, "{workload}: {:?}", traced.notes);
        for name in traced.metrics.keys() {
            assert!(
                metrics::PER_LAYER.iter().any(|(n, _)| n == name),
                "{workload} computes {name}, which PER_LAYER does not list"
            );
        }
        let json = serde_json::to_string(&traced.json(&metrics::PER_LAYER)).unwrap();
        let doc: Value = serde_json::from_str(&json).unwrap();
        let printed = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(printed.len(), metrics::PER_LAYER.len());
    }
}

#[test]
fn the_layer_contrast_holds() {
    let trickle = quick("trickle_insert", 3, true);
    let commit = quick("concurrent_commit", 3, true);
    let scan = quick("analytic_scan", 3, true);
    assert!(commit.metrics["store.busy_share"] > 0.5);
    assert!(trickle.metrics["store.busy_share"] < commit.metrics["store.busy_share"] / 2.0);
    // analytic_scan commits no write transaction and reads through the store.
    assert_eq!(scan.metrics["txn_per_s"], 0.0);
    assert!(scan.metrics["store.read_calls_per_query"] > 0.0);
}

#[test]
fn single_client_counts_repeat_exactly() {
    for workload in ["trickle_insert", "analytic_scan"] {
        let (a, b) = (quick(workload, 11, false), quick(workload, 11, false));
        assert_eq!(a.attempted, b.attempted);
        // Another seed changes the rows, not the operations.
        assert_eq!(a.attempted, quick(workload, 12, false).attempted);
        assert_eq!(
            a.metrics["store_bytes_per_user_byte"],
            b.metrics["store_bytes_per_user_byte"]
        );
        let (a, b) = (quick(workload, 11, true), quick(workload, 11, true));
        for exact in ["store.write_calls_per_txn", "store.read_calls_per_query"] {
            assert_eq!(a.metrics[exact], b.metrics[exact], "{workload} {exact}");
        }
        // Allocations repeat up to what the engine's telemetry thread, which
        // ticks on a timer, allocates meanwhile.
        let role = if workload == "trickle_insert" {
            "core.allocs_per_txn"
        } else {
            "core.allocs_per_query"
        };
        let (x, y) = (a.metrics[role], b.metrics[role]);
        assert!(
            x > 0.0 && (x - y).abs() / x < 0.02,
            "{workload} {role}: {x} vs {y}"
        );
    }
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let printed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), printed(&metrics::END_TO_END));
    assert_eq!(listed("per_layer"), printed(&metrics::PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(doc.get("paths").and_then(Value::as_array).unwrap().len(), 1);
}
