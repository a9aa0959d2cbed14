//! Replay probes: after a workload, call each layer's public functions
//! directly on the state the workload left behind — single-threaded, timed
//! from outside, the median of up to [`ITERATIONS`] calls and the allocations
//! per call. A probe answers "what does this layer cost at this history
//! depth"; it never touches the live catalog or the engine's store.

use crate::alloc;
use crate::stats::{median, ratio};
use crate::workloads::{EndState, Res};
use polaris_catalog::{wal, Catalog, ConflictGranularity, IsolationLevel};
use polaris_columnar::{
    ColumnarFile, ColumnarFooter, ColumnarWriter, DataType, RecordBatch, Value, WriterOptions,
};
use polaris_dcp::{WorkflowDag, WorkloadClass};
use polaris_exec::{cells_of_snapshot, plan_file_scan, Cell, Expr};
use polaris_lst::{Checkpoint, Manifest, SequenceId, SnapshotCache, TableSnapshot};
use polaris_obs::ScanMeter;
use polaris_store::{BlobPath, MemoryStore, ObjectStore, Stamp};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Calls per probe, unless [`Probe::budget`] runs out first (millisecond-scale
/// probes at deep history get fewer, never under [`MIN_ITERATIONS`]).
const ITERATIONS: usize = 1000;
const MIN_ITERATIONS: usize = 5;

/// What a probe measured: median nanoseconds and mean allocations per call.
#[derive(Clone, Copy)]
struct Cost {
    ns: f64,
    allocs: f64,
}

impl Cost {
    fn us(self) -> f64 {
        self.ns / 1e3
    }
}

/// How long one probe may keep sampling.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub budget: Duration,
}

impl Probe {
    /// Time `f(prepare())`, `prepare` untimed, on this thread.
    fn run_with<I, T>(self, mut prepare: impl FnMut() -> I, mut f: impl FnMut(I) -> T) -> Cost {
        let started = Instant::now();
        let mut samples = Vec::with_capacity(ITERATIONS);
        let mut allocs = 0;
        while samples.len() < ITERATIONS
            && (samples.len() < MIN_ITERATIONS || started.elapsed() < self.budget)
        {
            let input = prepare();
            let before = alloc::thread_counts();
            let t = Instant::now();
            let out = f(black_box(input));
            samples.push(t.elapsed().as_nanos() as f64);
            allocs += alloc::thread_counts().since(before).allocs;
            black_box(out);
        }
        Cost {
            ns: median(&samples),
            allocs: allocs as f64 / samples.len() as f64,
        }
    }

    fn run<T>(self, mut f: impl FnMut() -> T) -> Cost {
        self.run_with(|| (), |()| f())
    }
}

type Out = BTreeMap<&'static str, f64>;
type Layer = fn(Probe, &EndState, &mut Out) -> Res<()>;

/// Every probe, on `end`. A probe that cannot run on this end state (no WAL
/// segment left, say) leaves its metrics at 0 and says why on stderr.
pub fn run(p: Probe, end: &EndState) -> Out {
    let mut out = Out::new();
    alloc::set_counting(true);
    let layers: [(&str, Layer); 6] = [
        ("sql", sql),
        ("catalog", catalog),
        ("wal", wal_frames),
        ("lst+columnar+exec", table_layers),
        ("dcp", dcp),
        ("obs", obs),
    ];
    for (name, layer) in layers {
        if let Err(e) = layer(p, end, &mut out) {
            eprintln!("probe {name} skipped: {e}");
        }
    }
    alloc::set_counting(false);
    out
}

fn sql(p: Probe, end: &EndState, out: &mut Out) -> Res<()> {
    let mix = &end.statements;
    if mix.is_empty() {
        return Err("no statements".into());
    }
    let mut i = 0;
    let parse = p.run(|| {
        i += 1;
        polaris_sql::parse(&mix[i % mix.len()])
    });
    out.insert("sql.parse_us", parse.us());
    out.insert("sql.parse_allocs", parse.allocs);
    let selects: Vec<_> = mix
        .iter()
        .filter_map(|s| match polaris_sql::parse(s) {
            Ok(polaris_sql::Statement::Select(sel)) => Some(sel),
            _ => None,
        })
        .collect();
    if !selects.is_empty() {
        let mut i = 0;
        let plan = p.run(|| {
            i += 1;
            polaris_sql::plan_select(&selects[i % selects.len()])
        });
        out.insert("sql.plan_us", plan.us());
    }
    Ok(())
}

/// On a copy of the end-state catalog, so the probe's commits neither reach
/// the live catalog nor its WAL.
fn catalog(p: Probe, end: &EndState, out: &mut Out) -> Res<()> {
    let live = end.engine.catalog();
    let image = live.export()?;
    let copy = Catalog::new();
    copy.import(&image)?;
    let mut txn = copy.begin(IsolationLevel::Snapshot);
    let table = copy.table_by_name(&mut txn, &end.table)?.id;
    let depth = copy.visible_manifests(&mut txn, table)?.len();
    copy.abort(&mut txn);
    out.insert("catalog.history_depth", depth as f64);

    let commit = p.run(|| -> Res<()> {
        let mut txn = copy.begin(IsolationLevel::Snapshot);
        copy.record_write_set(&mut txn, table, &[], ConflictGranularity::Table)?;
        copy.commit_write(&mut txn, &[(table, "probe/manifest.json".to_owned())])?;
        Ok(())
    });
    out.insert("catalog.commit_us", commit.us());
    out.insert("catalog.commit_allocs", commit.allocs);
    let visible = p.run(|| {
        let mut txn = copy.begin(IsolationLevel::Snapshot);
        let rows = copy.visible_manifests(&mut txn, table);
        copy.abort(&mut txn);
        rows
    });
    out.insert("catalog.visible_manifests_us", visible.us());
    out.insert("catalog.export_us", p.run(|| live.export()).us());
    out.insert(
        "catalog.import_us",
        p.run(|| Catalog::new().import(&image)).us(),
    );
    Ok(())
}

fn wal_frames(p: Probe, end: &EndState, out: &mut Out) -> Res<()> {
    let segment = end
        .mem
        .list(polaris_core::recovery::WAL_PREFIX)?
        .into_iter()
        .max_by_key(|meta| meta.size)
        .ok_or("no WAL segment in the store")?;
    let bytes = end.mem.get(&segment.path)?;
    let (batches, _) = wal::decode_frames(&bytes);
    let commits: usize = batches.iter().map(|b| b.commits.len()).sum();
    let last = batches.last().ok_or("the largest WAL segment is empty")?;
    let mut frame = Vec::new();
    let encode = p.run(|| wal::encode_frame_into(last, &mut frame));
    out.insert("wal.encode_frame_us", encode.us());
    let decode = p.run(|| wal::decode_frames(&bytes));
    out.insert(
        "wal.decode_frames_us_per_batch",
        ratio(decode.us(), batches.len() as f64),
    );
    out.insert(
        "wal.frame_bytes_per_commit",
        ratio(bytes.len() as f64, commits as f64),
    );
    Ok(())
}

/// The manifest chain of the probed table, oldest first.
fn manifest_chain(end: &EndState) -> Res<Vec<(SequenceId, Manifest)>> {
    let catalog = end.engine.catalog();
    let mut txn = catalog.begin(IsolationLevel::Snapshot);
    let table = catalog.table_by_name(&mut txn, &end.table)?.id;
    let rows = catalog.visible_manifests(&mut txn, table)?;
    catalog.abort(&mut txn);
    rows.into_iter()
        .map(|(seq, row)| {
            let raw = end.mem.get(&BlobPath::new(row.manifest_file)?)?;
            Ok((seq, Manifest::decode(&raw)?))
        })
        .collect()
}

/// `column = value` on the table's first BIGINT column, `value` taken from
/// the middle of `batch` — the point predicate of the probes.
fn point_predicate(batch: &RecordBatch) -> Option<Expr> {
    let (i, field) = batch
        .schema()
        .fields()
        .iter()
        .enumerate()
        .find(|(_, f)| f.data_type == DataType::Int64)?;
    match batch.column(i).value(batch.num_rows() / 2) {
        Value::Int(v) => Some(Expr::col(field.name.clone()).eq(Expr::lit(v))),
        _ => None,
    }
}

/// Row groups a scan with `predicate` skips, as a share of all of them.
fn pruned_share(mem: &MemoryStore, cells: &[Cell], predicate: &Expr) -> Res<f64> {
    let meter = ScanMeter::new();
    let (mut total, mut kept) = (0usize, 0usize);
    for (i, cell) in cells.iter().enumerate() {
        let all = plan_file_scan(mem, cell, i, None, None, None)?
            .map_or(0, |plan| plan.footer.row_groups().len());
        total += all;
        if let Some(plan) = plan_file_scan(mem, cell, i, None, Some(predicate), Some(&meter))? {
            plan.whole_file_morsel().run(mem, None, Some(&meter))?;
            kept += plan.footer.row_groups().len();
        }
    }
    let skipped_in_kept = meter.row_groups_pruned.load(Ordering::Relaxed) as usize;
    Ok(ratio((total - kept + skipped_in_kept) as f64, total as f64))
}

/// lst, columnar and exec share the table's end state: its manifest chain,
/// the snapshot that replays to, and the data files under it.
fn table_layers(p: Probe, end: &EndState, out: &mut Out) -> Res<()> {
    let mem = &*end.mem;
    let chain = manifest_chain(end)?;
    let replay =
        |upto: usize| TableSnapshot::from_manifests(chain[..upto].iter().map(|(seq, m)| (*seq, m)));
    // The workload's typical manifest — the latest one of median size, which
    // on `trickle_insert` is a one-file insert and not the compaction after it.
    let mut sizes: Vec<usize> = chain.iter().map(|(_, m)| m.len()).collect();
    sizes.sort_unstable();
    let typical_len = *sizes
        .get(sizes.len() / 2)
        .ok_or("the table has no manifest")?;
    let at = chain
        .iter()
        .rposition(|(_, m)| m.len() == typical_len)
        .expect("the median size is the size of some manifest");
    let (typical_seq, typical) = chain[at].clone();

    // lst
    let raw = typical.encode();
    out.insert("lst.manifest_encode_us", p.run(|| typical.encode()).us());
    out.insert(
        "lst.manifest_decode_us",
        p.run(|| Manifest::decode(&raw)).us(),
    );
    out.insert("lst.snapshot_replay_us", p.run(|| replay(chain.len())).us());
    let base = replay(at)?;
    let extend = p.run_with(
        || {
            let cache = SnapshotCache::new(2);
            if base.upto() > SequenceId(0) {
                cache.seed(base.clone());
            }
            cache
        },
        // The cache goes back out with the result, so dropping it (and the
        // snapshot it holds) is not timed.
        |cache| {
            let fetch = |_, _| Ok(vec![(typical_seq, typical.clone())]);
            let snapshot = cache.snapshot_at(typical_seq, fetch);
            (cache, snapshot)
        },
    );
    out.insert("lst.snapshot_extend_us", extend.us());
    let snapshot = replay(chain.len())?;
    let checkpoint = Checkpoint::from_snapshot(&snapshot).encode();
    out.insert(
        "lst.checkpoint_decode_us",
        p.run(|| Checkpoint::decode(&checkpoint)).us(),
    );

    // columnar, on the largest data file
    let cells = cells_of_snapshot(&snapshot);
    let biggest = cells
        .iter()
        .max_by_key(|c| c.rows)
        .ok_or("the snapshot has no data file")?;
    let file = mem.get(&BlobPath::new(biggest.file.clone())?)?;
    let batch = ColumnarFile::parse(file.clone())?.read_all()?;
    let krows = batch.num_rows() as f64 / 1e3;
    let decode = p.run(|| ColumnarFile::parse(file.clone()).and_then(|f| f.read_all()));
    out.insert("columnar.decode_us_per_krow", ratio(decode.us(), krows));
    let encode = p.run(|| ColumnarWriter::encode_file(&batch, WriterOptions::default()));
    out.insert("columnar.encode_us_per_krow", ratio(encode.us(), krows));
    let len = file.len() as u64;
    let footer_len = ColumnarFooter::footer_len_from_tail(&file[file.len() - 8..])?;
    let tail = file.slice((len - footer_len - 8) as usize..);
    let footer = p.run(|| ColumnarFooter::parse_tail(tail.clone(), len));
    out.insert("columnar.footer_parse_us", footer.us());
    out.insert(
        "columnar.file_bytes_per_row",
        ratio(snapshot.total_bytes() as f64, snapshot.total_rows() as f64),
    );

    // exec: a full-projection scan of up to 64 files, the write operator, the
    // delete operator, and how much the pruning predicates skip
    let scanned = &cells[..cells.len().min(64)];
    let scanned_krows = scanned.iter().map(|c| c.rows).sum::<u64>() as f64 / 1e3;
    let scan = p.run(|| -> Res<usize> {
        let mut rows = 0;
        for (i, cell) in scanned.iter().enumerate() {
            if let Some(plan) = plan_file_scan(mem, cell, i, None, None, None)? {
                let done = plan.whole_file_morsel().run(mem, None, None)?;
                rows += done
                    .batches
                    .iter()
                    .map(RecordBatch::num_rows)
                    .sum::<usize>();
            }
        }
        Ok(rows)
    });
    out.insert("exec.scan_us_per_krow", ratio(scan.us(), scanned_krows));
    let scratch = MemoryStore::new();
    for (name, rows) in [
        ("exec.write_data_file_1row_us", 1),
        ("exec.write_data_file_4096row_us", 4096),
    ] {
        let indices: Vec<usize> = (0..rows).map(|i| i % batch.num_rows()).collect();
        let part = batch.take(&indices);
        let write = p.run(|| {
            polaris_exec::write::write_data_file(
                &scratch,
                "probe/data.col",
                &part,
                WriterOptions::default(),
                Stamp::SYSTEM,
            )
        });
        out.insert(name, write.us());
    }
    if let Some(point) = point_predicate(&batch) {
        let delete = p.run(|| polaris_exec::write::delete_matching(mem, biggest, &point));
        out.insert("exec.delete_matching_us", delete.us());
        let mut shares = vec![pruned_share(mem, &cells, &point)?];
        if batch.schema().fields().iter().any(|f| f.name == "w") {
            let filter = Expr::col("w").lt(Expr::lit(100i64));
            shares.push(pruned_share(mem, &cells, &filter)?);
        }
        out.insert(
            "exec.pruned_group_share",
            shares.iter().sum::<f64>() / shares.len() as f64,
        );
    }
    Ok(())
}

fn dcp(p: Probe, end: &EndState, out: &mut Out) -> Res<()> {
    let pool = end.engine.pool();
    let no_op = |tasks: usize| {
        let mut dag: WorkflowDag<()> = WorkflowDag::with_capacity(tasks);
        for _ in 0..tasks {
            dag.add_task(|_| Ok(()));
        }
        dag
    };
    // One no-op Write task: the fixed cost a one-row insert pays.
    let one = p.run_with(|| no_op(1), |dag| pool.run_dag(dag, WorkloadClass::Write));
    out.insert("dcp.dag_roundtrip_us", one.us());
    let many = p.run_with(|| no_op(64), |dag| pool.run_dag(dag, WorkloadClass::Write));
    out.insert("dcp.task_dispatch_us", many.us() / 64.0);
    Ok(())
}

fn obs(p: Probe, end: &EndState, out: &mut Out) -> Res<()> {
    let engine = &end.engine;
    out.insert(
        "obs.metrics_snapshot_us",
        p.run(|| engine.metrics_snapshot()).us(),
    );
    let mut session = engine.session();
    // The scan may fan out to pool threads: count the whole process.
    let before = alloc::process_counts();
    let mut calls = 0.0;
    let scan = p.run(|| {
        calls += 1.0;
        session.query("SELECT COUNT(name) FROM polaris.metrics")
    });
    let allocs = alloc::process_counts().since(before).allocs as f64;
    out.insert("obs.system_scan_ms", scan.ns / 1e6);
    out.insert("obs.system_scan_allocs", allocs / calls);
    Ok(())
}

/// `trickle_insert`'s median operation, split by the probe medians of the
/// layers on its path; what the probes do not explain stays visible as the
/// remainder (engine bookkeeping between the layers: transaction context,
/// profiles, tracing, metrics).
pub fn split_insert_path(m: &mut Out, op_us: f64) {
    let get = |m: &Out, name: &str| m.get(name).copied().unwrap_or(0.0);
    let parts = [
        (
            "path.sql_us",
            get(m, "sql.parse_us") + get(m, "sql.plan_us"),
        ),
        ("path.dcp_us", get(m, "dcp.dag_roundtrip_us")),
        ("path.exec_write_us", get(m, "exec.write_data_file_1row_us")),
        (
            "path.lst_us",
            get(m, "lst.manifest_encode_us") + get(m, "lst.snapshot_extend_us"),
        ),
        ("path.store_us", get(m, "path.store_us")),
        ("path.catalog_us", get(m, "catalog.commit_us")),
        ("path.wal_us", get(m, "wal.encode_frame_us")),
    ];
    let explained: f64 = parts.iter().map(|(_, us)| us).sum();
    m.extend(parts);
    m.insert("path.op_median_us", op_us);
    m.insert("path.core_remainder_us", op_us - explained);
    eprintln!("trickle_insert median operation {op_us:.1} us =");
    for (name, us) in parts {
        eprintln!("   {name:<24} {us:>9.1}");
    }
    eprintln!(
        "   {:<24} {:>9.1}",
        "path.core_remainder_us",
        op_us - explained
    );
}
