//! Operator property tests against naive, row-at-a-time oracles written
//! over `Value`s: the column kernels of `Expr::eval` vs `Expr::eval_row`,
//! typed `take`/`filter`/`append` vs push-per-`Value`, hash join vs
//! nested-loop, hash aggregate vs per-group fold, sort vs a reference
//! comparator, Top-N vs sort + limit, and the partial-aggregation
//! split/merge identity — over all five column types, with NULLs, NaN and
//! signed zeros. The key-hashing operators also draw from a second pool of
//! values that a weak hash would put in one bucket.

mod common;

use polaris_columnar::{Bitmap, ColumnVector, DataType, Field, RecordBatch, Schema, Value};
use polaris_exec::{ops, AggExpr, AggFunc, BinOp, ExecError, Expr};
use proptest::prelude::*;
use std::cmp::Ordering;

/// SplitMix64. Batches and expression trees are drawn from a
/// proptest-chosen seed: the vendored proptest has no recursive strategies.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

const TYPES: [(&str, DataType); 5] = [
    ("i", DataType::Int64),
    ("f", DataType::Float64),
    ("s", DataType::Utf8),
    ("b", DataType::Bool),
    ("d", DataType::Date32),
];

fn schema() -> Schema {
    Schema::new(
        TYPES
            .iter()
            .map(|(name, dt)| Field::nullable(*name, *dt))
            .collect(),
    )
}

/// Small domains, so keys repeat; one row in five is NULL. `wide` adds
/// the integer extremes that overflow `+ - *` and `SUM`.
fn value(g: &mut Gen, dt: DataType, wide: bool) -> Value {
    if g.below(5) == 0 {
        return Value::Null;
    }
    match dt {
        DataType::Int64 if wide && g.below(8) == 0 => Value::Int(g.pick(&[i64::MAX, i64::MIN])),
        DataType::Int64 => Value::Int(g.below(7) as i64 - 3),
        DataType::Float64 => {
            Value::Float(g.pick(&[-1.5, -0.0, 0.0, 0.5, 2.0, f64::NAN, f64::INFINITY]))
        }
        DataType::Utf8 => Value::Str(g.pick(&["", "a", "ab", "b", "ba"]).to_owned()),
        DataType::Bool => Value::Bool(g.below(2) == 0),
        DataType::Date32 => Value::Date(g.below(4) as i32 - 1),
    }
}

/// The second pool, for hash keys: half its draws are [`value`]'s, the
/// rest values that differ only in their high bits (multiples of 2³²,
/// dyadic floats, dates far apart), both zeros, NaNs of either sign, and
/// strings that differ only after byte 8. `wide` adds the integer extremes.
fn key_value(g: &mut Gen, dt: DataType, wide: bool) -> Value {
    if g.below(2) == 0 {
        return value(g, dt, wide);
    }
    if g.below(5) == 0 {
        return Value::Null;
    }
    match dt {
        DataType::Int64 if wide && g.below(4) == 0 => Value::Int(g.pick(&[i64::MIN, i64::MAX])),
        DataType::Int64 => Value::Int((g.below(5) as i64 - 2) << 32),
        DataType::Float64 => Value::Float(g.pick(&[
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            4_294_967_296.0,
            3.0 / 1024.0,
            -3.0 / 1024.0,
        ])),
        DataType::Utf8 => Value::Str(
            g.pick(&[
                "abcdefgh",
                "abcdefgh\0",
                "abcdefghi",
                "abcdefghj",
                "abcdefghijklmnop",
                "abcdefghijklmnoq",
            ])
            .to_owned(),
        ),
        DataType::Bool => value(g, dt, wide),
        DataType::Date32 => Value::Date(g.pick(&[i32::MIN, i32::MAX, 1 << 16, -(1 << 16)])),
    }
}

type Draw = fn(&mut Gen, DataType, bool) -> Value;

/// Half the cases draw every value from [`value`], half from [`key_value`].
fn either_pool(g: &mut Gen) -> Draw {
    if g.below(2) == 0 {
        value
    } else {
        key_value
    }
}

fn batch(g: &mut Gen, rows: usize, wide: bool) -> RecordBatch {
    batch_of(g, rows, wide, value)
}

fn batch_of(g: &mut Gen, rows: usize, wide: bool, draw: Draw) -> RecordBatch {
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|_| TYPES.iter().map(|(_, dt)| draw(g, *dt, wide)).collect())
        .collect();
    RecordBatch::from_rows(schema(), &data).unwrap()
}

fn column(g: &mut Gen) -> &'static str {
    TYPES[g.below(TYPES.len())].0
}

/// A random tree over the five columns and literals of every type (NULL
/// included), so well-typed and ill-typed operands both occur.
fn expr(g: &mut Gen, depth: usize) -> Expr {
    if depth == 0 || g.below(4) == 0 {
        return if g.below(2) == 0 {
            Expr::col(column(g))
        } else {
            let dt = TYPES[g.below(TYPES.len())].1;
            Expr::Literal(value(g, dt, true))
        };
    }
    let sub = |g: &mut Gen| Box::new(expr(g, depth - 1));
    match g.below(8) {
        0 => Expr::Not(sub(g)),
        1 => Expr::IsNull(sub(g)),
        2 => Expr::Contains {
            expr: sub(g),
            needle: g.pick(&["", "a", "b"]).to_owned(),
        },
        _ => Expr::Binary {
            left: sub(g),
            op: g.pick(&[
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Eq,
                BinOp::NotEq,
                BinOp::Lt,
                BinOp::LtEq,
                BinOp::Gt,
                BinOp::GtEq,
                BinOp::And,
                BinOp::Or,
            ]),
            right: sub(g),
        },
    }
}

fn rows_of(batch: &RecordBatch) -> Vec<Vec<Value>> {
    (0..batch.num_rows()).map(|i| batch.row(i)).collect()
}

/// Structural identity, NaN and the sign of zero included: `PartialEq`
/// would call a NaN different from itself.
fn same<T: std::fmt::Debug>(got: &T, want: &T) -> bool {
    format!("{got:?}") == format!("{want:?}")
}

/// The reference a typed gather must equal: one `push(&Value)` per row.
fn gather_by_value(col: &ColumnVector, rows: impl Iterator<Item = usize>) -> ColumnVector {
    let values: Vec<Value> = rows.map(|i| col.value(i)).collect();
    ColumnVector::from_values(col.data_type(), &values).unwrap()
}

/// Key equality as GROUP BY and joins define it, written independently of
/// the kernels: NaN equals NaN, `-0.0` equals `0.0`.
fn key_of(v: &Value) -> String {
    match v {
        Value::Float(f) if f.is_nan() => "NaN".to_owned(),
        Value::Float(f) if *f == 0.0 => "0".to_owned(),
        other => format!("{other:?}"),
    }
}

/// The ORDER BY order of two values of one column: NULLs first, NaN after
/// every number, `-0.0 == 0.0`.
fn order_of(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        (Value::Float(x), Value::Float(y)) => match (x.is_nan(), y.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => x.partial_cmp(y).unwrap(),
        },
        _ => a.sql_cmp(b).unwrap(),
    }
}

/// Rows of `batch` in ORDER BY order: a stable sort under [`order_of`].
fn sorted_by_value(batch: &RecordBatch, keys: &[(String, bool)]) -> Vec<Vec<Value>> {
    let cols: Vec<(usize, bool)> = keys
        .iter()
        .map(|(name, desc)| (batch.schema().index_of(name).unwrap(), *desc))
        .collect();
    let mut rows = rows_of(batch);
    rows.sort_by(|a, b| {
        cols.iter()
            .map(|&(c, desc)| {
                let ord = order_of(&a[c], &b[c]);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|ord| *ord != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    rows
}

fn order_keys(g: &mut Gen) -> Vec<(String, bool)> {
    (0..1 + g.below(2))
        .map(|_| (column(g).to_owned(), g.below(2) == 0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Expr::eval` is `eval_row` over every row: the same values, the
    /// inferred type, a mask only when a row is NULL, and an error exactly
    /// when some row errs (type errors and overflow included).
    fn eval_matches_row_wise(seed in any::<u64>(), rows in 1usize..24) {
        let g = &mut Gen(seed);
        let b = batch(g, rows, true);
        let e = expr(g, 3);
        let want: Result<Vec<Value>, _> = (0..rows).map(|i| e.eval_row(&b, i)).collect();
        match (e.eval(&b), want) {
            (Ok(col), Ok(want)) => {
                prop_assert_eq!(col.data_type(), e.result_type(b.schema()).unwrap(), "{:?}", e);
                let want = ColumnVector::from_values(col.data_type(), &want).unwrap();
                prop_assert!(same(&col, &want), "{:?}: {:?} != {:?}", e, col, want);
                let mask: Vec<usize> = e.eval_predicate(&b).unwrap().iter_set().collect();
                let truths: Vec<usize> =
                    (0..rows).filter(|&i| want.value(i) == Value::Bool(true)).collect();
                prop_assert_eq!(mask, truths, "{:?}", e);
            }
            (Err(_), Err(_)) => prop_assert!(e.eval_predicate(&b).is_err(), "{:?}", e),
            (got, want) => prop_assert!(false, "{:?}: column {:?}, rows {:?}", e, got, want),
        }
    }

    /// Typed `take`/`filter`/`head`/`append` equal the push-per-`Value`
    /// reference, masks and the values under NULLs included.
    fn typed_gathers_match_value_reference(seed in any::<u64>(), rows in 0usize..24) {
        let g = &mut Gen(seed);
        let a = batch(g, rows, false);
        let more_rows = g.below(8);
        let b = batch(g, more_rows, false);
        let picks: Vec<usize> = (0..g.below(30).min(rows * 30)).map(|_| g.below(rows)).collect();
        let mask: Bitmap = (0..rows).map(|_| g.below(2) == 0).collect();
        let head = g.below(rows + 2);
        for (col, more) in a.columns().iter().zip(b.columns()) {
            let want = gather_by_value(col, picks.iter().copied());
            prop_assert!(same(&col.take(&picks), &want));
            let want = gather_by_value(col, mask.iter_set());
            prop_assert!(same(&col.filter(&mask), &want));
            let want = gather_by_value(col, 0..head.min(rows));
            prop_assert!(same(&col.head(head), &want));
            let mut appended = col.clone();
            appended.append(more).unwrap();
            let mut want = col.clone();
            for i in 0..more.len() {
                want.push(&more.value(i)).unwrap();
            }
            prop_assert!(same(&appended, &want));
        }
        prop_assert!(same(&rows_of(&ops::limit(&a, head)), &rows_of(&a)[..head.min(rows)].to_vec()));
    }

    /// Inner hash join == nested-loop join, row for row: left order, then
    /// right order. NULL keys never match; NaN matches NaN.
    fn join_matches_nested_loop(seed in any::<u64>(), l in 0usize..20, r in 0usize..20) {
        let g = &mut Gen(seed);
        let draw = either_pool(g);
        let (lb, rb) = (batch_of(g, l, true, draw), batch_of(g, r, true, draw));
        let keys: Vec<&str> = (0..1 + g.below(2)).map(|_| column(g)).collect();
        let exprs: Vec<Expr> = keys.iter().map(|k| Expr::col(*k)).collect();
        let joined = ops::hash_join(&lb, &rb, &exprs, &exprs).unwrap();
        let key = |batch: &RecordBatch, row: usize| -> Option<Vec<String>> {
            keys.iter()
                .map(|k| batch.column_by_name(k).unwrap().value(row))
                .map(|v| (!v.is_null()).then(|| key_of(&v)))
                .collect()
        };
        let mut want: Vec<Vec<Value>> = Vec::new();
        for i in 0..l {
            for j in 0..r {
                if key(&lb, i).is_some() && key(&lb, i) == key(&rb, j) {
                    want.push(lb.row(i).into_iter().chain(rb.row(j)).collect());
                }
            }
        }
        prop_assert!(same(&rows_of(&joined), &want), "keys {:?}", keys);
    }

    /// Grouped COUNT/SUM/AVG/MIN/MAX match a per-group fold in row order,
    /// groups in first-seen order; an overflowing SUM is an error.
    fn aggregate_matches_fold(seed in any::<u64>(), rows in 0usize..40) {
        let g = &mut Gen(seed);
        let wide = g.below(4) == 0;
        let draw = either_pool(g);
        let b = batch_of(g, rows, wide, draw);
        let group: Vec<&str> = (0..g.below(3)).map(|_| column(g)).collect();
        let extreme_of = column(g);
        let aggs = [
            AggExpr::new(AggFunc::Count, Expr::col(column(g)), "n"),
            AggExpr::new(AggFunc::Sum, Expr::col("i"), "si"),
            AggExpr::new(AggFunc::Sum, Expr::col("f"), "sf"),
            AggExpr::new(AggFunc::Avg, Expr::col("i"), "ai"),
            AggExpr::new(AggFunc::Min, Expr::col(extreme_of), "lo"),
            AggExpr::new(AggFunc::Max, Expr::col(extreme_of), "hi"),
        ];
        let group_by: Vec<(Expr, String)> =
            group.iter().enumerate().map(|(i, c)| (Expr::col(*c), format!("g{i}"))).collect();
        let got = ops::hash_aggregate(&b, &group_by, &aggs);

        // Oracle: rows of each group in input order, then a fold per
        // aggregate over the group's non-NULL inputs.
        let col = |name: &str, row: usize| b.column_by_name(name).unwrap().value(row);
        let mut members: Vec<(Vec<String>, Vec<usize>)> = Vec::new();
        for row in 0..rows {
            let key: Vec<String> = group.iter().map(|c| key_of(&col(c, row))).collect();
            match members.iter_mut().find(|(k, _)| *k == key) {
                Some((_, rows)) => rows.push(row),
                None => members.push((key, vec![row])),
            }
        }
        if group.is_empty() && members.is_empty() {
            members.push((Vec::new(), Vec::new()));
        }
        let mut want: Vec<Vec<Value>> = Vec::new();
        let mut overflow = false;
        for (_, group_rows) in &members {
            let inputs = |name: &str| -> Vec<Value> {
                group_rows.iter().map(|&r| col(name, r)).filter(|v| !v.is_null()).collect()
            };
            let mut out: Vec<Value> = group.iter().map(|c| col(c, group_rows[0])).collect();
            let AggExpr { input: Expr::Column(counted), .. } = &aggs[0] else { unreachable!() };
            out.push(Value::Int(inputs(counted).len() as i64));
            let ints: Vec<i64> = inputs("i").iter().map(|v| v.as_int().unwrap()).collect();
            let sum = ints.iter().try_fold(0i64, |acc, v| acc.checked_add(*v));
            overflow |= sum.is_none();
            out.push(if ints.is_empty() { Value::Null } else { Value::Int(sum.unwrap_or(0)) });
            let floats = inputs("f");
            out.push(if floats.is_empty() {
                Value::Null
            } else {
                Value::Float(floats.iter().fold(0.0, |acc, v| acc + v.as_float().unwrap()))
            });
            out.push(if ints.is_empty() {
                Value::Null
            } else {
                let sum = ints.iter().fold(0.0, |acc, v| acc + *v as f64);
                Value::Float(sum / ints.len() as f64)
            });
            // The first of the equally extreme values wins.
            let extremes = inputs(extreme_of);
            let pick = |better: Ordering| {
                extremes.iter().fold(Value::Null, |best, v| {
                    if best.is_null() || order_of(v, &best) == better { v.clone() } else { best }
                })
            };
            out.push(pick(Ordering::Less));
            out.push(pick(Ordering::Greater));
            want.push(out);
        }
        match got {
            Ok(got) => {
                prop_assert!(!overflow);
                prop_assert!(same(&rows_of(&got), &want), "group by {:?}", group);
            }
            Err(e) => prop_assert!(overflow, "unexpected {}", e),
        }
    }

    /// Splitting a batch arbitrarily, partially aggregating each piece and
    /// merging equals aggregating the whole (the DCP identity) — NaN
    /// inputs to MIN/MAX included. With the integer extremes in play a SUM
    /// may overflow in the whole, a piece or the merge depending on the
    /// split; then overflow must be the only error.
    fn partial_merge_identity(seed in any::<u64>(), rows in 1usize..40, split in 0usize..40) {
        let g = &mut Gen(seed);
        let wide = g.below(4) == 0;
        let draw = either_pool(g);
        let b = batch_of(g, rows, wide, draw);
        let split = split.min(rows);
        let key = column(g);
        let group = vec![(Expr::col(key), "g".to_owned())];
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, Expr::col("i"), "total"),
            AggExpr::new(AggFunc::Count, Expr::col(column(g)), "n"),
            AggExpr::new(AggFunc::Min, Expr::col(column(g)), "lo"),
            AggExpr::new(AggFunc::Max, Expr::col(column(g)), "hi"),
        ];
        let lo_mask: Bitmap = (0..rows).map(|i| i < split).collect();
        let hi_mask: Bitmap = (0..rows).map(|i| i >= split).collect();
        let aggregate = |b: &RecordBatch| ops::hash_aggregate(b, &group, &aggs);
        let merged = aggregate(&b.filter(&lo_mask)).and_then(|p1| {
            let p2 = aggregate(&b.filter(&hi_mask))?;
            ops::merge_aggregates(&[p1, p2], 1, &aggs)
        });
        let (whole, merged) = match (aggregate(&b), merged) {
            (Ok(whole), Ok(merged)) => (whole, merged),
            (whole, merged) => {
                for e in [whole.err(), merged.err()].into_iter().flatten() {
                    prop_assert!(wide && matches!(e, ExecError::Overflow), "{}", e);
                }
                return Ok(());
            }
        };
        // MIN/MAX keep the first of equal values, so `-0.0`/`0.0` may
        // differ between the two; compare under key equality.
        let canon = |b: &RecordBatch| -> Vec<Vec<String>> {
            rows_of(b).iter().map(|r| r.iter().map(key_of).collect()).collect()
        };
        prop_assert_eq!(canon(&whole), canon(&merged));
    }

    /// Sort equals a stable sort under the reference comparator, and Top-N
    /// equals its first `n` rows, for every `n`.
    fn sort_and_top_n_match_reference(seed in any::<u64>(), rows in 0usize..40) {
        let g = &mut Gen(seed);
        let b = batch(g, rows, false);
        let keys = order_keys(g);
        let want = sorted_by_value(&b, &keys);
        prop_assert!(same(&rows_of(&ops::sort(&b, &keys).unwrap()), &want), "{:?}", keys);
        for n in 0..rows + 2 {
            let top = ops::top_n(&b, &keys, n).unwrap();
            prop_assert!(same(&rows_of(&top), &want[..n.min(rows)].to_vec()), "{:?} n={}", keys, n);
        }
    }

    /// filter(p) ∪ filter(NOT p) partitions the rows where p is not NULL.
    fn filter_partitions(seed in any::<u64>(), rows in 0usize..40) {
        let g = &mut Gen(seed);
        let b = batch(g, rows, false);
        let key = TYPES[g.below(TYPES.len())];
        let p = Expr::col(key.0).gt(Expr::Literal(loop {
            let v = value(g, key.1, false);
            // A NaN operand is a comparison error, not a predicate.
            if !v.is_null() && !same(&v, &Value::Float(f64::NAN)) {
                break v;
            }
        }));
        let nan = |v: &Value| same(v, &Value::Float(f64::NAN));
        if (0..rows).any(|i| nan(&b.column_by_name(key.0).unwrap().value(i))) {
            prop_assert!(ops::filter(&b, &p).is_err());
        } else {
            let yes = ops::filter(&b, &p).unwrap();
            let no = ops::filter(&b, &Expr::Not(Box::new(p))).unwrap();
            let nulls = b.column_by_name(key.0).unwrap().null_count();
            prop_assert_eq!(yes.num_rows() + no.num_rows() + nulls, rows);
        }
    }
}

mod lazy_scan {
    use crate::common::scan_cell_lazy;
    use polaris_columnar::{DataType, Field, RecordBatch, Schema, Value, WriterOptions};
    use polaris_exec::{scan, write as bewrite, Cell, Expr};
    use polaris_store::{MemoryStore, Stamp, StatsStore};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ])
    }

    fn setup(rows: i64, group_rows: usize) -> (StatsStore<MemoryStore>, Cell) {
        let store = StatsStore::new(MemoryStore::new());
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(format!("name-{i}")),
                    Value::Float(i as f64 / 2.0),
                ]
            })
            .collect();
        let batch = RecordBatch::from_rows(schema(), &data).unwrap();
        let opts = WriterOptions {
            row_group_rows: group_rows,
            ..Default::default()
        };
        let written = bewrite::write_data_file(&store, "t/f", &batch, opts, Stamp(1)).unwrap();
        let cell = Cell {
            file: "t/f".into(),
            rows: written.rows,
            bytes: written.bytes,
            distribution: 0,
            dv_path: None,
            col_ranges: Vec::new(),
        };
        (store, cell)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Lazy scan returns exactly the full scan projected onto the
        /// needed columns, for arbitrary predicates and column subsets.
        #[test]
        fn lazy_equals_full(
            rows in 1i64..200,
            group_rows in 1usize..64,
            lo in 0i64..200,
            width in 1i64..100,
            pick_name in any::<bool>(),
            pick_price in any::<bool>(),
        ) {
            let (store, cell) = setup(rows, group_rows);
            let pred = Expr::col("k").gt_eq(Expr::lit(lo)).and(Expr::col("k").lt(Expr::lit(lo + width)));
            let mut needed: BTreeSet<String> = ["k".to_owned()].into();
            if pick_name { needed.insert("name".to_owned()); }
            if pick_price { needed.insert("price".to_owned()); }

            let lazy = scan_cell_lazy(&store, &cell, Some(&needed), Some(&pred)).unwrap();
            let full = scan::scan_cell(&store, &cell, None, Some(&pred)).unwrap().map(|(f, _)| f);
            match (lazy, full) {
                (None, None) => {}
                (Some(l), Some(f)) => {
                    let cols: Vec<&str> = needed.iter().map(String::as_str).collect();
                    // order needed columns by file schema order
                    let ordered: Vec<&str> = ["k", "name", "price"]
                        .into_iter()
                        .filter(|c| cols.contains(c))
                        .collect();
                    prop_assert_eq!(l, f.project(&ordered).unwrap());
                }
                (l, f) => prop_assert!(false, "lazy={:?} full={:?}", l.is_some(), f.is_some()),
            }
        }
    }

    #[test]
    fn lazy_scan_reads_fewer_bytes() {
        let (store, cell) = setup(4_000, 256);
        store.reset();
        let needed: BTreeSet<String> = ["k".to_owned()].into();
        let pred = Expr::col("k").gt_eq(Expr::lit(3_900i64));
        scan_cell_lazy(&store, &cell, Some(&needed), Some(&pred))
            .unwrap()
            .unwrap();
        let lazy = store.counts();
        store.reset();
        scan::scan_cell(&store, &cell, None, Some(&pred))
            .unwrap()
            .unwrap();
        let full = store.counts();
        assert!(
            lazy.bytes_read * 4 < full.bytes_read,
            "lazy {} bytes vs full {} bytes",
            lazy.bytes_read,
            full.bytes_read
        );
    }

    #[test]
    fn count_star_with_empty_needed_set() {
        let (store, cell) = setup(100, 32);
        let needed: BTreeSet<String> = BTreeSet::new();
        let out = scan_cell_lazy(&store, &cell, Some(&needed), None)
            .unwrap()
            .unwrap();
        assert_eq!(out.num_rows(), 100);
        assert_eq!(out.num_columns(), 1, "falls back to the cheapest column");
    }
}
