//! `concurrent_commit` — two writers committing single-row auto-commit
//! `INSERT`s, each into its own table, over uncached simulated cloud storage
//! with group commit on (`group_commit_max_batch` 2) and no STO.
//!
//! Why: every commit is bound by storage round trips, so overlap (sharded
//! commit locks, group commit, pipelined manifest upload) and request count
//! matter and CPU barely does — the opposite regime to `trickle_insert` on
//! the same code. Every `commit_conflict_every`-th operation is a
//! barrier-synchronised forced-conflict round: both clients `BEGIN` on the
//! same snapshot, both `UPDATE` the same row of a 2-row `hot` table, both
//! `COMMIT` — first committer wins, exactly one per round. It is the only
//! workload that exercises aborts. The loser is an expected abort; any other
//! abort or error is a failure.
//!
//! `hot` is kept bounded: the winner of every
//! `commit_compact_every_rounds`-th round compacts it (uncompacted, its
//! delete vectors made a round cost ≈150 ms on the probe).

use super::{
    check_count_sum, open, recovered, reopen, EndState, Epoch, Measured, Res, Sizes, SplitMix,
    Tally, CLOUD,
};
use crate::stats::median;
use crate::trace::Recorder;
use polaris_core::{sto, PolarisEngine, Session};
use polaris_store::{LatencyStore, MemoryStore};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const GROUP_COMMIT: usize = 2;
const ROW_BYTES: u64 = 16;

/// One client's table and the rows the generator has put in it.
struct Writer {
    table: &'static str,
    rng: SplitMix,
    rows: i64,
    sum: i64,
}

impl Writer {
    fn next_insert(&mut self) -> String {
        let v = self.rng.below(1_000_000) as i64;
        self.rows += 1;
        self.sum += v;
        format!("INSERT INTO {} VALUES ({}, {v})", self.table, self.rows)
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Round {
    Won,
    Lost,
    Failed,
}

/// What one client did in the measured phase.
struct Done {
    writer: Writer,
    tally: Tally,
    busy_ns: u64,
    committed: u64,
    insert_ns: Vec<f64>,
    rounds: Vec<Round>,
    round_ns: Vec<f64>,
    statements: Vec<String>,
}

fn conflict_round(session: &mut Session, barrier: &Barrier) -> Round {
    let begun = session.execute("BEGIN").is_ok();
    barrier.wait(); // both have begun: same snapshot
    let updated = begun
        && session
            .execute("UPDATE hot SET v = v + 1 WHERE id = 0")
            .is_ok();
    barrier.wait(); // both have written before either commits
    let outcome = match session.execute("COMMIT") {
        Ok(_) if updated => Round::Won,
        Err(e) if updated && e.is_retryable_conflict() => Round::Lost,
        _ => Round::Failed,
    };
    barrier.wait(); // both have committed
    outcome
}

fn client(
    engine: &Arc<PolarisEngine>,
    rec: &Recorder,
    barrier: &Barrier,
    sizes: &Sizes,
    mut writer: Writer,
) -> Done {
    let mut tally = Tally::default();
    let mut committed = 0;
    let mut insert_ns = Vec::with_capacity(sizes.commit_ops_per_client);
    let (mut rounds, mut round_ns, mut statements) = (Vec::new(), Vec::new(), Vec::new());
    let mut session = engine.session();
    barrier.wait();
    let started = Instant::now();
    for i in 0..sizes.commit_ops_per_client {
        if (i + 1) % sizes.commit_conflict_every != 0 {
            let sql = writer.next_insert();
            let (r, ns) = rec.root("txn.insert", || session.execute(&sql));
            if tally.op(&sql, r).is_some() {
                committed += 1;
                insert_ns.push(ns as f64);
            }
            if statements.len() < 32 {
                statements.push(sql);
            }
            continue;
        }
        barrier.wait(); // round start
        let (outcome, ns) = rec.root("txn.conflict_round", || {
            conflict_round(&mut session, barrier)
        });
        tally.expect(outcome != Round::Failed, || {
            format!("conflict round {}: unexpected error", rounds.len())
        });
        rounds.push(outcome);
        round_ns.push(ns as f64);
        if outcome == Round::Won {
            committed += 1;
            if rounds.len() % sizes.commit_compact_every_rounds == 0 {
                let r = sto::compact_table(engine, "hot");
                if tally.op("compact hot", r).flatten().is_some() {
                    committed += 1;
                }
            }
        }
    }
    Done {
        busy_ns: started.elapsed().as_nanos() as u64,
        writer,
        tally,
        committed,
        insert_ns,
        rounds,
        round_ns,
        statements,
    }
}

pub fn epoch(seed: u64, sizes: &Sizes, tracing: bool) -> Res<Epoch> {
    let mut ep = Epoch {
        clients: 2,
        writers: 2,
        ..Epoch::default()
    };
    let mut tally = Tally::default();
    let rec = Recorder::new();
    let mem = Arc::new(MemoryStore::new());
    let remote = || LatencyStore::new(Arc::clone(&mem), CLOUD);
    let mut writers = ["w0", "w1"].map(|table| Writer {
        table,
        rng: SplitMix(seed ^ u64::from(table.as_bytes()[1])),
        rows: 0,
        sum: 0,
    });

    let t_setup = Instant::now();
    let engine = open(remote(), &rec, GROUP_COMMIT)?;
    let mut session = engine.session();
    for table in ["w0", "w1", "hot"] {
        session.execute(&format!("CREATE TABLE {table} (id BIGINT, v BIGINT)"))?;
    }
    session.execute("INSERT INTO hot VALUES (0, 0), (1, 0)")?;
    for _ in 0..sizes.commit_conflict_every {
        for w in &mut writers {
            session.execute(&w.next_insert())?;
        }
    }
    drop(session);
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    let clock_before = engine.catalog().now().0;
    let measured = Measured::begin(&rec, tracing, &engine);
    let barrier = Barrier::new(2);
    let [w0, w1] = writers;
    let done = std::thread::scope(|scope| {
        let other = scope.spawn(|| client(&engine, &rec, &barrier, sizes, w1));
        let mine = client(&engine, &rec, &barrier, sizes, w0);
        [mine, other.join().expect("a client thread does not panic")]
    });
    measured.end(&rec, &mut ep);
    let clock_after = engine.catalog().now().0;

    // One winner per forced round, conflicts = rounds, and a dense clock:
    // the commit sequence advanced by exactly the transactions that committed.
    let rounds = done[0].rounds.len();
    for r in 0..rounds {
        let pair = [
            done[0].rounds[r],
            done[1].rounds.get(r).copied().unwrap_or(Round::Failed),
        ];
        tally.expect(
            pair == [Round::Won, Round::Lost] || pair == [Round::Lost, Round::Won],
            || format!("conflict round {r}: outcomes {pair:?}"),
        );
    }
    let committed: u64 = done.iter().map(|d| d.committed).sum();
    tally.expect(clock_after - clock_before == committed, || {
        format!(
            "clock advanced {} for {committed} committed transactions",
            clock_after - clock_before
        )
    });
    // Rows written: every insert, the 2 rows of `hot`, and the row each
    // winning UPDATE rewrote.
    let rows = 2 + rounds as i64 + done.iter().map(|d| d.writer.rows).sum::<i64>();
    let mut round_ns = Vec::new();
    let mut tables = Vec::new();
    let mut statements = Vec::new();
    for d in done {
        tally.absorb(d.tally);
        ep.busy_ns += d.busy_ns;
        ep.shapes.entry("insert").or_default().extend(d.insert_ns);
        round_ns.extend(d.round_ns);
        statements.extend(d.statements);
        tables.push((d.writer.table, d.writer.rows, d.writer.sum));
    }
    ep.txns = committed;
    ep.txn_busy_ns = ep.busy_ns;
    ep.layer
        .insert("catalog.conflict_round_ms", median(&round_ns) / 1e6);

    drop(engine);
    drop(reopen(
        &mut ep,
        &mut tally,
        &rec,
        GROUP_COMMIT,
        remote,
        |_, _| {},
    )?);
    let engine = recovered(&mut tally, &rec, &mem, GROUP_COMMIT, |t, s| {
        for (table, rows, sum) in &tables {
            check_count_sum(t, s, table, "v", *rows, *sum, "after recovery");
        }
        check_count_sum(t, s, "hot", "v", 2, rounds as i64, "after recovery");
    })?;

    ep.store_epoch = rec.counts();
    ep.user_bytes = rows as u64 * ROW_BYTES;
    ep.live_user_bytes = ep.user_bytes;
    ep.live_store_bytes = mem.committed_bytes();
    ep.tally = tally;
    ep.end = Some(EndState {
        engine,
        mem,
        table: "w0".to_owned(),
        statements,
    });
    Ok(ep)
}
