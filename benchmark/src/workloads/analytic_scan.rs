//! `analytic_scan` — one BI session running four query shapes over a loaded
//! table, `MemoryStore` underneath.
//!
//! Why: exec morsels, columnar decode and dcp Read lanes do the work while
//! catalog and STO sit idle. The issue expected the WAL idle too; it is not:
//! every read-only auto-commit takes a commit timestamp and appends an empty
//! frame, which `store.write_calls` shows (2 store writes per query). It is
//! the workload a commit-path change must leave flat and a scan-path change
//! should move. The table is `scan_rows` rows × 4 columns loaded as
//! `scan_batches` bulk inserts, so it fits in memory with room to spare: the
//! workload that fits the cache, against `wp3_mixed`, which does not.

use super::{
    check_count_sum, open, reopen, EndState, Epoch, Measured, Res, Sizes, SplitMix, Tally,
};
use crate::trace::Recorder;
use polaris_columnar::{ColumnVector, DataType, Field, RecordBatch, Schema, Value};
use polaris_store::MemoryStore;
use std::sync::Arc;
use std::time::Instant;

const TABLE: &str = "scan";
const GROUPS: u64 = 64;
/// `w` is uniform below this, so `w < 100` keeps 1% of the rows.
const W_RANGE: u64 = 10_000;
pub const SHAPES: [&str; 4] = ["group_agg", "filter_count", "topn", "point"];

/// The generated table, kept column-wise so expected answers are cheap.
struct Rows {
    grp: Vec<u64>,
    /// Multiples of 2⁻¹⁰ below 2²⁰: any order of summation is exact in f64,
    /// so `SUM`/`AVG` can be checked for equality.
    v: Vec<f64>,
    w: Vec<i64>,
}

impl Rows {
    fn generate(seed: u64, n: usize) -> Rows {
        let mut rng = SplitMix(seed);
        let mut rows = Rows {
            grp: Vec::with_capacity(n),
            v: Vec::with_capacity(n),
            w: Vec::with_capacity(n),
        };
        for _ in 0..n {
            rows.grp.push(rng.below(GROUPS));
            rows.v.push(rng.below(1 << 30) as f64 / 1024.0);
            rows.w.push(rng.below(W_RANGE) as i64);
        }
        rows
    }

    fn batch(&self, schema: &Schema, range: std::ops::Range<usize>) -> Res<RecordBatch> {
        let col = |values| ColumnVector::Int64 {
            values,
            validity: None,
        };
        Ok(RecordBatch::new(
            schema.clone(),
            vec![
                col(range.clone().map(|i| i as i64).collect()),
                ColumnVector::Utf8 {
                    values: self.grp[range.clone()]
                        .iter()
                        .map(|g| format!("g{g:02}"))
                        .collect(),
                    validity: None,
                },
                ColumnVector::Float64 {
                    values: self.v[range.clone()].to_vec(),
                    validity: None,
                },
                col(self.w[range].to_vec()),
            ],
        )?)
    }
}

/// Expected answers, computed from the generated rows alone.
struct Expected {
    group_sum: Vec<f64>,
    group_count: Vec<u64>,
    filter_count: i64,
    top_v: Vec<f64>,
}

impl Expected {
    fn of(rows: &Rows) -> Expected {
        let mut e = Expected {
            group_sum: vec![0.0; GROUPS as usize],
            group_count: vec![0; GROUPS as usize],
            filter_count: rows.w.iter().filter(|w| **w < 100).count() as i64,
            top_v: rows.v.clone(),
        };
        for (g, v) in rows.grp.iter().zip(&rows.v) {
            e.group_sum[*g as usize] += v;
            e.group_count[*g as usize] += 1;
        }
        e.top_v.sort_unstable_by(|a, b| b.total_cmp(a));
        e.top_v.truncate(10);
        e
    }
}

fn check(shape: &str, out: &RecordBatch, rows: &Rows, want: &Expected, key: usize) -> bool {
    match shape {
        "group_agg" => {
            out.num_rows() == GROUPS as usize
                && (0..out.num_rows()).all(|i| {
                    let Value::Str(name) = out.column(0).value(i) else {
                        return false;
                    };
                    let Some(g) = name[1..]
                        .parse::<usize>()
                        .ok()
                        .filter(|g| *g < GROUPS as usize)
                    else {
                        return false;
                    };
                    let avg = want.group_sum[g] / want.group_count[g] as f64;
                    out.column(1).value(i) == Value::Float(want.group_sum[g])
                        && out.column(2).value(i) == Value::Float(avg)
                })
        }
        "filter_count" => super::scalar_i64(out, 0) == Some(want.filter_count),
        "topn" => {
            out.num_rows() == want.top_v.len()
                && (0..out.num_rows())
                    .all(|i| out.column(1).value(i) == Value::Float(want.top_v[i]))
        }
        _ => {
            out.num_rows() == 1
                && out.row(0)
                    == vec![
                        Value::Int(key as i64),
                        Value::Str(format!("g{:02}", rows.grp[key])),
                        Value::Float(rows.v[key]),
                        Value::Int(rows.w[key]),
                    ]
        }
    }
}

pub fn epoch(seed: u64, sizes: &Sizes, tracing: bool) -> Res<Epoch> {
    let mut ep = Epoch {
        clients: 1,
        writers: 0,
        ..Epoch::default()
    };
    let mut tally = Tally::default();
    let rec = Recorder::new();
    let mem = Arc::new(MemoryStore::new());
    let n = sizes.scan_rows;
    let rows = Rows::generate(seed, n);
    let want = Expected::of(&rows);
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("grp", DataType::Utf8),
        Field::new("v", DataType::Float64),
        Field::new("w", DataType::Int64),
    ]);
    let per_batch = n.div_ceil(sizes.scan_batches);
    let batches: Vec<RecordBatch> = (0..n)
        .step_by(per_batch)
        .map(|lo| rows.batch(&schema, lo..(lo + per_batch).min(n)))
        .collect::<Res<_>>()?;
    let mut keys = SplitMix(seed ^ 0x0070_6f69_6e74);
    let sql_of = |shape: &str, key: usize| match shape {
        "group_agg" => format!("SELECT grp, SUM(v) AS s, AVG(v) AS a FROM {TABLE} GROUP BY grp"),
        "filter_count" => format!("SELECT COUNT(*) AS n FROM {TABLE} WHERE w < 100"),
        "topn" => format!("SELECT id, v FROM {TABLE} ORDER BY v DESC LIMIT 10"),
        _ => format!("SELECT id, grp, v, w FROM {TABLE} WHERE id = {key}"),
    };

    ep.user_bytes = batches.iter().map(super::user_bytes).sum();

    let t_setup = Instant::now();
    let engine = open(Arc::clone(&mem), &rec, 1)?;
    let mut session = engine.session();
    session.execute(&format!(
        "CREATE TABLE {TABLE} (id BIGINT, grp VARCHAR, v FLOAT, w BIGINT)"
    ))?;
    for batch in &batches {
        session.insert_batch(TABLE, batch)?;
    }
    for shape in SHAPES {
        session.query(&sql_of(shape, keys.below(n as u64) as usize))?;
    }
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    let measured = Measured::begin(&rec, tracing, &engine);
    let mut statements = Vec::new();
    for _ in 0..sizes.scan_passes {
        for shape in SHAPES {
            let key = keys.below(n as u64) as usize;
            let sql = sql_of(shape, key);
            let (r, ns) = rec.root(shape, || session.query(&sql));
            ep.query_busy_ns += ns;
            if let Some(out) = tally.op(&sql, r) {
                ep.queries += 1;
                ep.sample(shape, ns);
                tally.expect(check(shape, &out, &rows, &want, key), || {
                    format!("wrong answer: {sql}")
                });
            }
            if statements.len() < SHAPES.len() {
                statements.push(sql);
            }
        }
    }
    measured.end(&rec, &mut ep);
    ep.busy_ns = ep.query_busy_ns;

    let total_w: i64 = rows.w.iter().sum();
    drop(session);
    drop(engine);
    let engine = reopen(
        &mut ep,
        &mut tally,
        &rec,
        1,
        || Arc::clone(&mem),
        |t, s| check_count_sum(t, s, TABLE, "w", n as i64, total_w, "after reopen"),
    )?;

    ep.store_epoch = rec.counts();
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
