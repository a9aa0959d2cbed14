//! `benchmark` — one runner for the four `BENCHMARK.json` workloads.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! runs one workload and prints, as the last line of standard output, one JSON
//! object `{correct, attempted, failed, metrics}`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. Without
//! `--workload` it runs all four in turn; `--aa` runs that suite twice and
//! compares the two; `--quick` uses the smoke-test sizes. See README.md.

mod alloc;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use serde_json::{json, Value};
use stats::{best_quartile, geomean, median, quantile, ratio};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::{covered_ns, Span};
use workloads::{run_epoch, Epoch, Res, Sizes, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Per-shape medians of `analytic_scan`, in `analytic_scan::SHAPES` order.
const Q_METRICS: [&str; 4] = [
    "exec.q_group_agg_ms",
    "exec.q_filter_count_ms",
    "exec.q_topn_ms",
    "exec.q_point_ms",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 16.0,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // A/A compares end-to-end metrics, which only an untraced run prints.
    args.trace &= !args.aa;
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

/// What one run of one workload produced.
struct RunResult {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    fn json(&self, listed: &[(&'static str, &'static str)]) -> Value {
        let metrics: Vec<(String, Value)> = listed
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                ((*name).to_owned(), json!({"value": value, "unit": *unit}))
            })
            .collect();
        json!({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

/// Latency samples of `epochs`, pooled per shape.
fn pooled(epochs: &[&Epoch]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ep in epochs {
        for (shape, samples) in &ep.shapes {
            out.entry(shape).or_default().extend(samples);
        }
    }
    out
}

/// Whether more of a timing metric is better (a rate) or less (a time).
const HIGHER: bool = true;
const LOWER: bool = false;

/// Best quartile over epochs of what `f` makes of each. Every epoch does the
/// same work from the same state, so epochs are repeats of one experiment,
/// and the host disturbs some of them: see [`best_quartile`].
fn across(epochs: &[&Epoch], higher_is_better: bool, f: impl Fn(&Epoch) -> f64) -> f64 {
    best_quartile(
        &epochs.iter().map(|e| f(e)).collect::<Vec<_>>(),
        higher_is_better,
    )
}

fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// Client operations per second of mean client busy time.
fn ops_per_s(epochs: &[&Epoch]) -> f64 {
    across(epochs, HIGHER, |e| {
        ratio(
            (e.txns + e.queries) as f64 * 1e9,
            e.busy_ns as f64 / e.clients as f64,
        )
    })
}

/// `(middle, tail)` of the workload's operation latency, in nanoseconds. Each
/// is a statistic of one epoch's samples, taken across epochs by [`across`].
///
/// * insert workloads: p50 and p99.5 of the auto-commit INSERT. (p99 sits on
///   the edge of the WAL-checkpoint cluster — one batch in 64 — and flips in
///   and out of it with group-commit batching; p99.5 is inside it and has
///   ≥ 10 samples beyond it in every epoch.)
/// * `analytic_scan`: geometric mean over shapes of each shape's median (a
///   plain median over a 1 / 5 / 20 / 45 ms mix sits on a gap and flips), and
///   the largest per-shape p90.
/// * `wp3_mixed`: a shape is sampled once per round and each round starts
///   from a different, deterministic state, so a shape's value is its mean
///   over the rounds of an epoch; the middle is the geometric mean over the
///   12 shapes. A handful of samples per shape supports no tail percentile:
///   the tail is the slowest shape's value.
fn latency(workload: &str, epochs: &[&Epoch]) -> (f64, f64) {
    let of = |shape: &str, f: &dyn Fn(&[f64]) -> f64| {
        across(epochs, LOWER, |e| e.shapes.get(shape).map_or(0.0, |s| f(s)))
    };
    let over = |shapes: &[&str], mid: &dyn Fn(&[f64]) -> f64, tail: &dyn Fn(&[f64]) -> f64| {
        let mids: Vec<f64> = shapes.iter().map(|s| of(s, mid)).collect();
        let tails = shapes.iter().map(|s| of(s, tail));
        (geomean(&mids), tails.fold(0.0, f64::max))
    };
    match workload {
        "trickle_insert" | "concurrent_commit" => {
            over(&["insert"], &median, &|s| quantile(s, 0.995))
        }
        "analytic_scan" => over(&workloads::analytic_scan::SHAPES, &median, &|s| {
            quantile(s, 0.9)
        }),
        _ => over(&workloads::wp3_mixed::SHAPES, &mean, &mean),
    }
}

/// Cold `PolarisEngine::open` over the crashed store: the reopens of an
/// epoch recover the same bytes, so the fastest is the one the host did not
/// disturb; across epochs by [`across`].
fn recovery_ms(epochs: &[&Epoch]) -> f64 {
    across(epochs, LOWER, |e| {
        e.recovery_ms.iter().copied().fold(f64::INFINITY, f64::min)
    })
}

fn end_to_end(workload: &str, epochs: &[&Epoch]) -> BTreeMap<&'static str, f64> {
    let (mid, tail) = latency(workload, epochs);
    let stored_per_user_byte: Vec<f64> = epochs
        .iter()
        .map(|e| ratio(e.store_epoch.bytes_written as f64, e.user_bytes as f64))
        .collect();
    BTreeMap::from([
        ("setup_s", across(epochs, LOWER, |e| e.setup_s)),
        ("ops_per_s", ops_per_s(epochs)),
        ("op_mid_us", mid / 1e3),
        ("op_tail_us", tail / 1e3),
        ("recovery_ms", recovery_ms(epochs)),
        // A count, not a timing: the host does not move it.
        ("store_bytes_per_user_byte", median(&stored_per_user_byte)),
        // The high-water mark of the first epoch: later epochs add allocator
        // fragmentation, not work, and their number varies with the machine.
        ("peak_rss_mb", epochs.first().map_or(0.0, |e| e.peak_rss_mb)),
    ])
}

/// Per-layer values one traced epoch shows in situ: store traffic per
/// operation, time with a request in flight, allocations per operation, and
/// the part of an operation not covered by storage requests.
fn in_situ(ep: &Epoch) -> BTreeMap<&'static str, f64> {
    let mut out = ep.layer.clone();
    let (txns, queries) = (ep.txns as f64, ep.queries as f64);
    let st = ep.store_measured;
    out.insert(
        "store.write_calls_per_txn",
        ratio(st.write_calls as f64, txns),
    );
    out.insert(
        "store.bytes_written_per_txn",
        ratio(st.bytes_written as f64, txns),
    );
    out.insert(
        "store.read_calls_per_query",
        ratio(st.read_calls as f64, queries),
    );
    out.insert(
        "store.bytes_read_per_query",
        ratio(st.bytes_read as f64, queries),
    );
    out.insert("store.write_calls", st.write_calls as f64);
    out.insert("store.errors", st.errors as f64);
    out.insert(
        "store.live_bytes_per_user_byte",
        ratio(ep.live_store_bytes as f64, ep.live_user_bytes as f64),
    );
    // The allocator cannot tell whose allocation it was: a workload with both
    // roles (`wp3_mixed`) reports allocations per operation of either kind.
    let (allocs, bytes) = (ep.allocs.allocs as f64, ep.allocs.bytes as f64);
    if ep.txns > 0 {
        out.insert("core.allocs_per_txn", allocs / (txns + queries));
        out.insert("core.alloc_bytes_per_txn", bytes / (txns + queries));
    }
    if ep.queries > 0 {
        out.insert("core.allocs_per_query", allocs / (txns + queries));
    }

    let is_store = |s: &&Span| s.name.starts_with("store.");
    let (lo, hi) = ep.spans.iter().fold((u64::MAX, 0), |(lo, hi), s| {
        (lo.min(s.start_ns), hi.max(s.end_ns))
    });
    let mut calls: Vec<(u64, u64)> = ep
        .spans
        .iter()
        .filter(is_store)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let busy = covered_ns(&mut calls, lo, hi) as f64;
    out.insert("store.busy_ms", busy / 1e6);
    out.insert("store.busy_share", ratio(busy, ep.measured_ns as f64));
    if ep.clients == 1 {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in ep.spans.iter().filter(is_store) {
            children
                .entry(s.op)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let (mut selfs, mut stores) = (Vec::new(), Vec::new());
        for root in ep
            .spans
            .iter()
            .filter(|s| s.op == s.id && s.name != "sto.run_once")
        {
            let covered = children
                .get_mut(&root.id)
                .map_or(0, |c| covered_ns(c, root.start_ns, root.end_ns));
            selfs.push((root.dur_ns() - covered) as f64);
            stores.push(covered as f64);
        }
        out.insert("core.execute_self_us", median(&selfs) / 1e3);
        out.insert("path.store_us", median(&stores) / 1e3);
    }
    out
}

/// The per-role view, from epochs run with tracing off.
fn roles(workload: &str, epochs: &[&Epoch]) -> BTreeMap<&'static str, f64> {
    let shapes = pooled(epochs);
    let mut out = BTreeMap::new();
    out.insert(
        "txn_per_s",
        across(epochs, HIGHER, |e| {
            ratio((e.txns * e.writers) as f64 * 1e9, e.txn_busy_ns as f64)
        }),
    );
    out.insert(
        "query_per_s",
        across(epochs, HIGHER, |e| {
            let readers = e.clients - e.writers;
            ratio((e.queries * readers) as f64 * 1e9, e.query_busy_ns as f64)
        }),
    );
    let (mid, tail) = latency(workload, epochs);
    if shapes.contains_key("insert") {
        out.insert("txn_p50_us", mid / 1e3);
        out.insert("txn_p995_us", tail / 1e3);
        out.insert("txn_p99_us", quantile(&shapes["insert"], 0.99) / 1e3);
    } else {
        out.insert("query_geomean_ms", mid / 1e6);
        out.insert("query_tail_ms", tail / 1e6);
        for (shape, name) in workloads::analytic_scan::SHAPES.into_iter().zip(Q_METRICS) {
            if let Some(s) = shapes.get(shape) {
                out.insert(name, median(s) / 1e6);
            }
        }
    }
    out.insert(
        "latency_samples",
        shapes.values().map(|s| s.len() as f64).sum(),
    );
    out
}

fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()),
    )
    .join("benchmark");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}{comma}"#,
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op
        )?;
    }
    writeln!(out, "]")?;
    out.flush()?;
    Ok(path)
}

/// Run `workload` until its measured phases add up to `seconds`.
///
/// Untraced, every epoch is measured alike. Traced, epochs alternate between
/// tracing on and off: the traced ones give the in-situ layer numbers, the
/// others the per-role numbers, and the two together the tracing overhead;
/// the replay probes then run on the last epoch's end state.
fn run(workload: &str, seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Res<RunResult> {
    let mut epochs: Vec<(bool, Epoch)> = Vec::new();
    let mut measured_s = 0.0;
    let min_epochs = if trace { 2 } else { sizes.min_epochs };
    while measured_s < seconds || epochs.len() < min_epochs {
        let tracing = trace && epochs.len().is_multiple_of(2);
        // The end state of earlier epochs is only kept for the probes.
        if let Some((_, last)) = epochs.last_mut() {
            last.end = None;
        }
        let ep = run_epoch(workload, seed, sizes, tracing)?;
        measured_s += ep.measured_ns as f64 / 1e9;
        epochs.push((tracing, ep));
    }
    let mut result = RunResult {
        attempted: epochs.iter().map(|(_, e)| e.tally.attempted).sum(),
        failed: epochs.iter().map(|(_, e)| e.tally.failed).sum(),
        notes: epochs
            .iter()
            .flat_map(|(_, e)| e.tally.notes.clone())
            .collect(),
        metrics: BTreeMap::new(),
    };
    let plain: Vec<&Epoch> = epochs.iter().filter(|(t, _)| !t).map(|(_, e)| e).collect();
    if !trace {
        result.metrics = end_to_end(workload, &plain);
        return Ok(result);
    }
    let traced: Vec<&Epoch> = epochs.iter().filter(|(t, _)| *t).map(|(_, e)| e).collect();
    let mut per_epoch: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ep in &traced {
        for (name, value) in in_situ(ep) {
            per_epoch.entry(name).or_default().push(value);
        }
    }
    let m = &mut result.metrics;
    m.extend(
        per_epoch
            .iter()
            .map(|(name, values)| (*name, median(values))),
    );
    m.extend(roles(workload, &plain));
    m.insert(
        "trace_overhead_share",
        1.0 - ratio(ops_per_s(&traced), ops_per_s(&plain)),
    );
    m.insert(
        "failed_share",
        ratio(result.failed as f64, result.attempted as f64),
    );
    let all: Vec<&Epoch> = epochs.iter().map(|(_, e)| e).collect();
    m.insert("core.open_ms", recovery_ms(&all));
    if let Some(end) = epochs.last().and_then(|(_, e)| e.end.as_ref()) {
        m.extend(probes::run(sizes.probe, end));
    }
    if workload == "trickle_insert" {
        let op_us = m.get("txn_p50_us").copied().unwrap_or(0.0);
        probes::split_insert_path(m, op_us);
    }
    match write_spans(workload, &traced[0].spans) {
        Ok(path) => eprintln!("spans of the first traced epoch: {}", path.display()),
        Err(e) => eprintln!("could not write the span file: {e}"),
    }
    Ok(result)
}

/// End-to-end bounds from the `BENCHMARK.json` of the checkout this binary
/// was built from.
fn bounds() -> Res<BTreeMap<String, f64>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path)?;
    let doc: Value = serde_json::from_str(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// One workload in this process: what the driver runs. The result object is
/// the last line of standard output.
fn single(workload: &str, args: &Args, sizes: &Sizes) -> Res<bool> {
    // Let the machine go idle first. On the reference VM a thread hand-off
    // costs 6 µs or 35 µs depending on where the host left the two vCPUs, and
    // it leaves them apart after anything that kept both busy — the build, or
    // the previous run — until a few seconds of idleness bring them back.
    // `trickle_insert` is a chain of hand-offs: started in that state it
    // measures the hypervisor (op_mid_us 210 against 73), not the engine.
    std::thread::sleep(sizes.settle);
    let listed: &[(&str, &str)] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let r = run(workload, args.seed, args.seconds, args.trace, sizes)?;
    for note in &r.notes {
        eprintln!("FAILED {note}");
    }
    println!("{}", serde_json::to_string(&r.json(listed))?);
    Ok(r.failed == 0)
}

/// All workloads (or the one named), each in a process of its own so that
/// peak memory and allocator state are a fresh process's, as in the driver's
/// runs; with `--aa`, twice, comparing the two passes.
fn suite(args: &Args) -> Res<bool> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    let mut passes: Vec<BTreeMap<&str, Value>> = Vec::new();
    for _ in 0..if args.aa { 2 } else { 1 } {
        let mut pass = BTreeMap::new();
        for name in &names {
            let mut child = std::process::Command::new(std::env::current_exe()?);
            child.args(["--workload", name, "--seed", &args.seed.to_string()]);
            child.args(["--seconds", &args.seconds.to_string()]);
            child.args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.quick {
                child.arg("--quick");
            }
            let out = child.stderr(std::process::Stdio::inherit()).output()?;
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().ok_or("the child printed no result")?;
            let result: Value = serde_json::from_str(line)?;
            ok &= out.status.success();
            let count = |key: &str| result.get(key).and_then(Value::as_u64).unwrap_or(0);
            println!(
                "== {name}: {} attempted, {} failed",
                count("attempted"),
                count("failed")
            );
            let metrics = result.get("metrics").cloned().unwrap_or(Value::Null);
            for (metric, m) in metrics.as_object().into_iter().flatten() {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                println!("   {metric:<34} {value:>16.4} {unit}");
            }
            println!("{line}");
            pass.insert(*name, metrics);
        }
        passes.push(pass);
    }
    if let [a, b] = &passes[..] {
        let bounds = bounds()?;
        let value = |pass: &BTreeMap<&str, Value>, name: &str, metric: &str| {
            pass[name]
                .get(metric)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        println!("== A/A: the same code and seed twice; |a-b|/a against each bound");
        for name in &names {
            for (metric, unit) in &metrics::END_TO_END {
                let (x, y) = (value(a, name, metric), value(b, name, metric));
                let diff = ratio((x - y).abs(), x);
                let bound = bounds.get(*metric).copied().unwrap_or(0.0);
                let verdict = if diff <= bound { "ok" } else { "DISAGREE" };
                ok &= diff <= bound;
                println!(
                    "   {name:<18} {metric:<26} {x:>14.4} {y:>14.4} {unit:<4} diff {diff:.4} bound {bound:.2} {verdict}"
                );
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let outcome = match &args.workload {
        Some(workload) if !args.aa => single(workload, &args, &sizes),
        _ => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests;
