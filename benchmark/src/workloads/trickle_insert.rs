//! `trickle_insert` — one ETL client trickling single-row auto-commit
//! `INSERT`s into one table of a durable engine over `MemoryStore`.
//!
//! Why: each operation crosses the whole commit path (sql → core txn →
//! one-row write DAG on dcp → exec write → lst manifest → store upload →
//! catalog validate → WAL append → publish) and almost none of exec's scan
//! path; zero-latency storage makes CPU and allocation cost visible. The
//! client pays for maintenance inline: `sto::run_once` every
//! `trickle_sto_every` commits, and the WAL's catalog checkpoint every 64.
//! History never levels off (each commit adds a data file, a manifest and a
//! catalog row), which `core.txn_latency_drift` and `core.sto_tick_growth`
//! report instead of hiding.

use super::{
    check_count_sum, open, reopen, EndState, Epoch, Measured, Res, Sizes, SplitMix, Tally,
};
use crate::stats::{median, ratio};
use crate::trace::Recorder;
use polaris_core::sto;
use polaris_store::MemoryStore;
use std::sync::Arc;
use std::time::Instant;

const TABLE: &str = "trickle";
/// One BIGINT id and one BIGINT value per row.
const ROW_BYTES: u64 = 16;

/// The rows inserted so far, as the generator knows them.
struct Generator {
    rng: SplitMix,
    rows: i64,
    sum: i64,
}

impl Generator {
    fn next_insert(&mut self) -> String {
        let v = self.rng.below(1_000_000) as i64;
        self.rows += 1;
        self.sum += v;
        format!("INSERT INTO {TABLE} VALUES ({}, {v})", self.rows)
    }
}

pub fn epoch(seed: u64, sizes: &Sizes, tracing: bool) -> Res<Epoch> {
    let mut ep = Epoch {
        clients: 1,
        writers: 1,
        ..Epoch::default()
    };
    let mut tally = Tally::default();
    let rec = Recorder::new();
    let mem = Arc::new(MemoryStore::new());
    let mut gen = Generator {
        rng: SplitMix(seed),
        rows: 0,
        sum: 0,
    };

    let t_setup = Instant::now();
    let engine = open(Arc::clone(&mem), &rec, 1)?;
    let mut session = engine.session();
    session.execute(&format!("CREATE TABLE {TABLE} (id BIGINT, v BIGINT)"))?;
    for _ in 0..sizes.trickle_warmup {
        session.execute(&gen.next_insert())?;
    }
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    let measured = Measured::begin(&rec, tracing, &engine);
    let mut statements = Vec::new();
    let mut ticks = Vec::new();
    for i in 0..sizes.trickle_ops {
        let sql = gen.next_insert();
        let (r, ns) = rec.root("txn.insert", || session.execute(&sql));
        if tally.op(&sql, r).is_some() {
            ep.txns += 1;
            ep.sample("insert", ns);
        }
        if statements.len() < 64 {
            statements.push(sql);
        }
        if (i + 1) % sizes.trickle_sto_every == 0 {
            let (r, ns) = rec.root("sto.run_once", || sto::run_once(&engine));
            tally.op("sto::run_once", r);
            ticks.push(ns as f64);
        }
    }
    measured.end(&rec, &mut ep);
    // STO ticks and WAL checkpoints are the client's time too.
    ep.busy_ns = ep.measured_ns;
    ep.txn_busy_ns = ep.measured_ns;

    // Levelling-off checks: last quarter against first quarter.
    let lat = ep.shapes.get("insert").map_or(&[][..], Vec::as_slice);
    let quarter = (lat.len() / 4).max(1).min(lat.len());
    let drift = ratio(median(&lat[lat.len() - quarter..]), median(&lat[..quarter]));
    ep.layer.insert("core.txn_latency_drift", drift);
    ep.layer.insert("core.sto_tick_ms", median(&ticks) / 1e6);
    ep.layer.insert(
        "core.sto_tick_growth",
        ratio(
            ticks.last().copied().unwrap_or(0.0),
            ticks.first().copied().unwrap_or(0.0),
        ),
    );

    // Acknowledged ⇒ visible, before the kill and after every reopen.
    // `MemoryStore` holds only committed blobs, so dropping the engine leaves
    // exactly what a crash would: nothing unflushed survives by accident.
    let (rows, sum) = (gen.rows, gen.sum);
    check_count_sum(
        &mut tally,
        &mut session,
        TABLE,
        "v",
        rows,
        sum,
        "before the kill",
    );
    drop(session);
    drop(engine);
    let engine = reopen(
        &mut ep,
        &mut tally,
        &rec,
        1,
        || Arc::clone(&mem),
        |t, s| check_count_sum(t, s, TABLE, "v", rows, sum, "after reopen"),
    )?;

    ep.store_epoch = rec.counts();
    ep.user_bytes = rows as u64 * ROW_BYTES;
    ep.live_user_bytes = ep.user_bytes;
    ep.live_store_bytes = mem.committed_bytes();
    ep.tally = tally;
    ep.end = Some(EndState {
        engine,
        mem,
        table: TABLE.to_owned(),
        statements,
    });
    Ok(ep)
}
