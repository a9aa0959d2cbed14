//! `wp3_mixed` — the paper's Fig 12 shape: one reader running the SU query
//! set while one writer runs data maintenance and the STO, over simulated
//! cloud storage behind a BE cache that holds half of the loaded bytes.
//!
//! Why: the same lst/exec/store layers as the other workloads, used
//! differently — snapshot extension on every query, delete-vector
//! merge-on-read, cache invalidation by committed compaction, writes beside
//! reads — so a scan gain that costs the writer, or a commit gain that costs
//! fresh-snapshot reads, shows here. It is the one workload larger than the
//! program's cache.
//!
//! A round is one SU pass (12 queries) beside `wp3_dm_per_round` DM phases
//! and one `sto::run_once`. A barrier between rounds (its wait excluded from
//! every latency) keeps the state at the start of round *i* the same from
//! run to run.

use super::{open, recovered, reopen, EndState, Epoch, Measured, Res, Sizes, Tally, CLOUD};
use crate::stats::{median, ratio};
use crate::trace::Recorder;
use polaris_core::{sto, Session, StatementOutcome};
use polaris_store::{CachingStore, LatencyStore, MemoryStore};
use polaris_workloads::{lstbench, tpcds};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// `tpcds::su_queries()` names, in order; the set-up checks they still match.
pub const SHAPES: [&str; 12] = [
    "catalog_revenue_by_item",
    "catalog_daily_totals",
    "catalog_top_customers",
    "catalog_return_rate",
    "store_revenue_by_item",
    "store_daily_totals",
    "store_top_customers",
    "store_return_rate",
    "web_revenue_by_item",
    "web_daily_totals",
    "web_top_customers",
    "web_return_rate",
];

type Cache = CachingStore<LatencyStore<Arc<MemoryStore>>>;

/// What the writer did in the measured phase.
#[derive(Default)]
struct Written {
    tally: Tally,
    txns: u64,
    busy_ns: u64,
    user_bytes: u64,
    inserted: u64,
    deleted: u64,
    insert_ns: Vec<f64>,
    delete_ns: Vec<f64>,
    tick_ns: Vec<f64>,
    compactions: usize,
    compaction_conflicts: usize,
}

/// One DM phase, statement for statement what `lstbench::run_dm` sends — 2
/// bulk INSERTs then 6 DELETEs over a sliding key window — with each
/// statement timed on its own.
fn dm_phase(
    rec: &Recorder,
    session: &mut Session,
    w: &mut Written,
    phase: usize,
    sf: f64,
    seed: u64,
) {
    let batch_rows = (tpcds::SALES_ROWS_PER_SF as f64 * sf * 0.1).max(8.0) as usize;
    for table in ["catalog_sales", "store_sales"] {
        let start = tpcds::rows_at(table, sf) + phase * batch_rows;
        let data = tpcds::generate_range(table, sf, seed ^ 0xD4, start, start + batch_rows);
        let (r, ns) = rec.root("dm.insert", || session.insert_batch(table, &data));
        w.busy_ns += ns;
        if let Some(n) = w.tally.op("dm insert", r) {
            w.txns += 1;
            w.inserted += n;
            w.user_bytes += super::user_bytes(&data);
            w.insert_ns.push(ns as f64);
        }
    }
    for table in tpcds::tables() {
        let total = tpcds::rows_at(&table, sf);
        let window = (total / 20).max(2);
        let lo = (phase * window) % total.max(1);
        let sql = format!(
            "DELETE FROM {table} WHERE sk > {lo} AND sk <= {}",
            lo + window
        );
        let (r, ns) = rec.root("dm.delete", || session.execute(&sql));
        w.busy_ns += ns;
        if let Some(out) = w.tally.op(&sql, r) {
            w.txns += 1;
            if let StatementOutcome::Affected(n) = out {
                w.deleted += n;
            }
            w.delete_ns.push(ns as f64);
        }
    }
}

fn total_rows(tally: &mut Tally, session: &mut Session) -> Option<i64> {
    tpcds::tables().iter().try_fold(0i64, |acc, table| {
        let sql = format!("SELECT COUNT(*) AS n FROM {table}");
        let out = tally.op(&sql, session.query(&sql))?;
        Some(acc + super::scalar_i64(&out, 0)?)
    })
}

pub fn epoch(seed: u64, sizes: &Sizes, tracing: bool) -> Res<Epoch> {
    let mut ep = Epoch {
        clients: 2,
        writers: 1,
        ..Epoch::default()
    };
    let mut tally = Tally::default();
    let rec = Recorder::new();
    let mem = Arc::new(MemoryStore::new());
    let sf = sizes.wp3_sf;
    let queries = tpcds::su_queries();
    if !queries.iter().map(|(name, _)| name.as_str()).eq(SHAPES) {
        return Err("tpcds::su_queries() no longer matches wp3_mixed::SHAPES".into());
    }
    let remote = || LatencyStore::new(Arc::clone(&mem), CLOUD);

    // Load through an uncached engine, so the cache can be sized from what the
    // load stored; the measured engine then opens over the loaded store.
    let t_setup = Instant::now();
    {
        let loader = open(remote(), &rec, 1)?;
        lstbench::setup_tpcds(&loader, sf, seed)?;
    }
    let loaded_bytes = mem.committed_bytes();
    let cache: Arc<Cache> = Arc::new(CachingStore::new(remote(), loaded_bytes / 2));
    let engine = open(Arc::clone(&cache), &rec, 1)?;
    lstbench::run_su(&engine)?;
    ep.setup_s = t_setup.elapsed().as_secs_f64();
    let loaded_rows: usize = tpcds::tables().iter().map(|t| tpcds::rows_at(t, sf)).sum();
    ep.user_bytes = tpcds::tables()
        .iter()
        .map(|t| super::user_bytes(&tpcds::generate(t, sf, seed)))
        .sum();

    let (hits_before, misses_before) = cache.stats();
    let measured = Measured::begin(&rec, tracing, &engine);
    let barrier = Barrier::new(2);
    let written = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut w = Written::default();
            let mut session = engine.session();
            for round in 0..sizes.wp3_rounds {
                barrier.wait();
                for j in 0..sizes.wp3_dm_per_round {
                    let phase = round * sizes.wp3_dm_per_round + j;
                    dm_phase(&rec, &mut session, &mut w, phase, sf, seed);
                }
                let (r, ns) = rec.root("sto.run_once", || sto::run_once(&engine));
                w.busy_ns += ns;
                if let Some(tick) = w.tally.op("sto::run_once", r) {
                    w.compactions += tick.compactions;
                    w.compaction_conflicts += tick.compaction_conflicts;
                    w.tick_ns.push(ns as f64);
                }
                barrier.wait();
            }
            w
        });
        let mut session = engine.session();
        for _ in 0..sizes.wp3_rounds {
            barrier.wait();
            for ((_, sql), shape) in queries.iter().zip(SHAPES) {
                let (r, ns) = rec.root(shape, || session.query(sql));
                ep.query_busy_ns += ns;
                if tally.op(sql, r).is_some() {
                    ep.queries += 1;
                    ep.sample(shape, ns);
                }
            }
            barrier.wait();
        }
        writer.join().expect("the writer thread does not panic")
    });
    measured.end(&rec, &mut ep);
    let (hits, misses) = cache.stats();
    let w = written;
    tally.absorb(w.tally);
    ep.txns = w.txns;
    ep.txn_busy_ns = w.busy_ns;
    ep.busy_ns = ep.query_busy_ns + w.busy_ns;
    ep.user_bytes += w.user_bytes;
    ep.layer
        .insert("core.dm_insert_ms", median(&w.insert_ns) / 1e6);
    ep.layer
        .insert("core.dm_delete_ms", median(&w.delete_ns) / 1e6);
    ep.layer
        .insert("core.sto_tick_ms", median(&w.tick_ns) / 1e6);
    ep.layer.insert(
        "core.compaction_conflict_share",
        ratio(
            w.compaction_conflicts as f64,
            (w.compactions + w.compaction_conflicts) as f64,
        ),
    );
    ep.layer.insert(
        "store.cache_hit_ratio",
        ratio(
            (hits - hits_before) as f64,
            (hits + misses - hits_before - misses_before) as f64,
        ),
    );
    // Final row counts = loaded + inserted − deleted, read after a crash.
    let want = loaded_rows as i64 + w.inserted as i64 - w.deleted as i64;
    drop(engine);
    drop(cache);
    // A crash loses the BE cache with the process.
    let cold = || CachingStore::new(remote(), loaded_bytes / 2);
    drop(reopen(&mut ep, &mut tally, &rec, 1, cold, |_, _| {})?);
    let engine = recovered(&mut tally, &rec, &mem, 1, |t, s| {
        let got = total_rows(t, s);
        t.expect(got == Some(want), || {
            format!("rows after recovery: expected {want}, got {got:?}")
        });
    })?;

    ep.store_epoch = rec.counts();
    ep.live_user_bytes = (ep.user_bytes as f64
        * ratio(want as f64, (loaded_rows as u64 + w.inserted) as f64))
        as u64;
    ep.live_store_bytes = mem.committed_bytes();
    ep.tally = tally;
    ep.end = Some(EndState {
        engine,
        mem,
        table: "store_sales".to_owned(),
        statements: queries.into_iter().map(|(_, sql)| sql).collect(),
    });
    Ok(ep)
}
