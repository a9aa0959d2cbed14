//! Batch operators: filter, project, hash aggregate, hash join, sort,
//! top-n, limit.
//!
//! Operators are pure functions `RecordBatch -> RecordBatch`; the DCP
//! composes them into per-task pipelines. Materializing whole batches is
//! fine at cell granularity — a cell is bounded by the writer's row-group
//! size.
//!
//! Every operator works a column at a time: expressions evaluate to whole
//! columns once ([`Expr::eval`]), group and join keys become dense `u32`
//! ids hashed from borrowed typed values, aggregates accumulate into one
//! typed vector per function, and orderings compare typed values in
//! place. No `Value` is built per row.
//!
//! Key ids are hashed by the seeded word-at-a-time hasher of
//! [`polaris_columnar::hash`]: one multiply per integer and per 8 bytes of
//! a string instead of SipHash. Its seed is per process and never shows:
//! the id table is only probed, ids are handed out in first-seen row
//! order, so every output is the same under any seed. Its `finish` mixes
//! the high bits down because the table picks a bucket from the low bits,
//! and keys such as `k << 32` or dyadic floats differ only in high bits.

use crate::{AggExpr, AggFunc, ExecError, ExecResult, Expr};
use polaris_columnar::hash::KeyMap;
use polaris_columnar::{Bitmap, ColumnVector, DataType, Field, RecordBatch, Schema};
use std::cmp::Ordering;
use std::hash::Hash;

/// Keep rows satisfying `predicate` (SQL semantics: NULL filters out).
pub fn filter(batch: &RecordBatch, predicate: &Expr) -> ExecResult<RecordBatch> {
    let mask = predicate.eval_predicate(batch)?;
    Ok(batch.filter(&mask))
}

/// Compute named expressions into a new batch.
pub fn project(batch: &RecordBatch, exprs: &[(Expr, String)]) -> ExecResult<RecordBatch> {
    let mut fields = Vec::with_capacity(exprs.len());
    let mut columns = Vec::with_capacity(exprs.len());
    for (expr, name) in exprs {
        let col = expr.eval(batch)?;
        fields.push(Field::nullable(name.clone(), col.data_type()));
        columns.push(col);
    }
    Ok(RecordBatch::new(Schema::new(fields), columns)?)
}

/// The one order and equality of `Float64` keys, as an integer with that
/// order: numbers in numeric order with `-0.0 == 0.0`, then every NaN,
/// all equal. ORDER BY, Top-N, GROUP BY and join keys all compare and
/// hash floats through it, so they agree on what a duplicate is.
fn float_key(f: f64) -> i64 {
    if f.is_nan() {
        return i64::MAX;
    }
    // `-0.0 + 0.0` is `+0.0`; then the sign-magnitude bits to two's
    // complement order, as `f64::total_cmp` does.
    let bits = (f + 0.0).to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Marks a row whose key can match nothing (a NULL join key).
const NO_ID: u32 = u32::MAX;

/// Dense ids of composite keys, refined one key column at a time: after
/// column `j`, two rows share an id iff they agree on columns `0..=j`.
/// `build` rows are numbered in first-seen row order. GROUP BY has only
/// those, and a NULL is one more key; a join also has `probe` rows (its
/// other side), which only look ids up, and a NULL key gets no id at all.
struct KeyIds {
    build: Vec<u32>,
    probe: Vec<u32>,
    /// Distinct ids handed out to `build` rows.
    count: usize,
}

impl KeyIds {
    /// Before any key column: every row carries the one empty key.
    fn new(build_rows: usize, probe_rows: usize) -> Self {
        KeyIds {
            build: vec![0; build_rows],
            probe: vec![0; probe_rows],
            count: 1,
        }
    }

    /// Refine by one more key column; `None` is a NULL key. Without
    /// `probe_keys` this is GROUP BY.
    fn refine<K: Hash + Eq>(
        &mut self,
        build_keys: impl Iterator<Item = Option<K>>,
        probe_keys: Option<impl Iterator<Item = Option<K>>>,
    ) {
        let null_is_key = probe_keys.is_none();
        let mut seen: KeyMap<(u32, Option<K>), u32> = KeyMap::default();
        for (id, key) in self.build.iter_mut().zip(build_keys) {
            if *id != NO_ID {
                *id = if key.is_some() || null_is_key {
                    let next = seen.len() as u32;
                    *seen.entry((*id, key)).or_insert(next)
                } else {
                    NO_ID
                };
            }
        }
        for (id, key) in self.probe.iter_mut().zip(probe_keys.into_iter().flatten()) {
            if *id != NO_ID {
                *id = match key {
                    None => NO_ID,
                    key => seen.get(&(*id, key)).copied().unwrap_or(NO_ID),
                };
            }
        }
        self.count = seen.len();
    }

    /// [`KeyIds::refine`] over a key column, and for a join the other
    /// side's. Columns of different types share no key.
    fn refine_by(&mut self, build: &ColumnVector, probe: Option<&ColumnVector>) {
        fn keys<'a, T, K>(
            values: impl Iterator<Item = T> + 'a,
            validity: &'a Option<Bitmap>,
            key: impl Fn(T) -> K + 'a,
        ) -> impl Iterator<Item = Option<K>> + 'a {
            let valid = move |i| validity.as_ref().is_none_or(|m| m.get(i));
            values
                .enumerate()
                .map(move |(i, v)| valid(i).then(|| key(v)))
        }
        macro_rules! typed {
            ($variant:ident, $key:expr) => {
                if let ColumnVector::$variant {
                    values: b,
                    validity: bv,
                } = build
                {
                    let probe_keys = match probe {
                        None => None,
                        Some(ColumnVector::$variant {
                            values: p,
                            validity: pv,
                        }) => Some(keys(p.iter(), pv, $key)),
                        Some(_) => return self.probe.fill(NO_ID),
                    };
                    return self.refine(keys(b.iter(), bv, $key), probe_keys);
                }
            };
        }
        typed!(Int64, |v: &i64| *v);
        typed!(Float64, |v: &f64| float_key(*v));
        typed!(Utf8, |v: &str| v);
        typed!(Bool, |v: &bool| *v);
        typed!(Date32, |v: &i32| *v);
    }
}

/// Visit `(row, group)` for every row of `ids` that `validity` keeps.
fn for_each_valid(
    validity: Option<&Bitmap>,
    ids: &[u32],
    mut f: impl FnMut(usize, usize) -> ExecResult<()>,
) -> ExecResult<()> {
    for (row, &group) in ids.iter().enumerate() {
        if validity.is_none_or(|m| m.get(row)) {
            f(row, group as usize)?;
        }
    }
    Ok(())
}

/// One aggregate over `input`, one output row per group: typed
/// accumulators indexed by group id, fed in row order.
fn accumulate(
    func: AggFunc,
    input: &ColumnVector,
    ids: &[u32],
    groups: usize,
) -> ExecResult<ColumnVector> {
    let valid = input.validity();
    let mut counts = vec![0i64; groups];
    for_each_valid(valid, ids, |_, g| {
        counts[g] += 1;
        Ok(())
    })?;
    // NULL where a group saw no value; a mask only if some group did not.
    let validity = counts
        .contains(&0)
        .then(|| counts.iter().map(|&c| c > 0).collect::<Bitmap>());
    match (func, input) {
        (AggFunc::Count, _) => Ok(ColumnVector::Int64 {
            values: counts,
            validity: None,
        }),
        (AggFunc::Sum, ColumnVector::Int64 { values, .. }) => {
            let mut sums = vec![0i64; groups];
            for_each_valid(valid, ids, |row, g| {
                sums[g] = sums[g]
                    .checked_add(values[row])
                    .ok_or(ExecError::Overflow)?;
                Ok(())
            })?;
            Ok(ColumnVector::Int64 {
                values: sums,
                validity,
            })
        }
        (
            AggFunc::Sum | AggFunc::Avg,
            ColumnVector::Int64 { .. } | ColumnVector::Float64 { .. },
        ) => {
            let mut sums = vec![0f64; groups];
            match input {
                ColumnVector::Int64 { values, .. } => for_each_valid(valid, ids, |row, g| {
                    sums[g] += values[row] as f64;
                    Ok(())
                })?,
                ColumnVector::Float64 { values, .. } => for_each_valid(valid, ids, |row, g| {
                    sums[g] += values[row];
                    Ok(())
                })?,
                _ => unreachable!("matched numeric above"),
            }
            if func == AggFunc::Avg {
                for (sum, &count) in sums.iter_mut().zip(&counts) {
                    if count > 0 {
                        *sum /= count as f64;
                    }
                }
            }
            Ok(ColumnVector::Float64 {
                values: sums,
                validity,
            })
        }
        (AggFunc::Sum | AggFunc::Avg, other) => {
            if other.null_count() < other.len() {
                return Err(ExecError::plan(format!(
                    "{func:?} over non-numeric {}",
                    other.data_type()
                )));
            }
            Ok(ColumnVector::nulls(
                agg_result_type(func, other.data_type()),
                groups,
            ))
        }
        (AggFunc::Min | AggFunc::Max, _) => {
            let wanted = if func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            // Row of each group's extreme so far; a later row replaces it
            // only when strictly better, so the first of equals stays.
            let mut best = vec![usize::MAX; groups];
            macro_rules! extreme {
                ($variant:ident, $values:expr, $key:expr, $none:expr) => {{
                    for_each_valid(valid, ids, |row, g| {
                        if best[g] == usize::MAX
                            || $key(&$values[row]).cmp(&$key(&$values[best[g]])) == wanted
                        {
                            best[g] = row;
                        }
                        Ok(())
                    })?;
                    let mut picked = <_>::default();
                    Extend::extend(
                        &mut picked,
                        best.iter().map(|&row| match row {
                            usize::MAX => &$none,
                            row => &$values[row],
                        }),
                    );
                    ColumnVector::$variant {
                        values: picked,
                        validity,
                    }
                }};
            }
            Ok(match input {
                ColumnVector::Int64 { values, .. } => extreme!(Int64, values, |v| v, 0),
                // NaN is the greatest float here too, so MIN/MAX do not
                // depend on how the rows were split into partials.
                ColumnVector::Float64 { values, .. } => {
                    extreme!(Float64, values, |v: &f64| float_key(*v), 0.0)
                }
                ColumnVector::Utf8 { values, .. } => extreme!(Utf8, values, |v| v, *""),
                ColumnVector::Bool { values, .. } => extreme!(Bool, values, |v| v, false),
                ColumnVector::Date32 { values, .. } => extreme!(Date32, values, |v| v, 0),
            })
        }
    }
}

fn agg_result_type(func: AggFunc, input_type: DataType) -> DataType {
    match func {
        AggFunc::Count => DataType::Int64,
        AggFunc::Avg => DataType::Float64,
        AggFunc::Sum => {
            if input_type == DataType::Float64 {
                DataType::Float64
            } else {
                DataType::Int64
            }
        }
        AggFunc::Min | AggFunc::Max => input_type,
    }
}

/// Hash aggregation: `GROUP BY group_by` computing `aggs`.
///
/// With empty `group_by` this is a scalar aggregate producing exactly one
/// row (even over an empty input, as SQL requires). Groups come out in
/// first-seen row order and every accumulator is fed in row order, so the
/// result — float sums included — is a function of the input order alone.
pub fn hash_aggregate(
    batch: &RecordBatch,
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
) -> ExecResult<RecordBatch> {
    // Output schema.
    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    for (expr, name) in group_by {
        fields.push(Field::nullable(
            name.clone(),
            expr.result_type(batch.schema())?,
        ));
    }
    for agg in aggs {
        let input_type = agg.input.result_type(batch.schema())?;
        fields.push(Field::nullable(
            agg.output.clone(),
            agg_result_type(agg.func, input_type),
        ));
    }

    let mut ids = KeyIds::new(batch.num_rows(), 0);
    let mut columns = Vec::with_capacity(fields.len());
    if !group_by.is_empty() {
        let keys = group_by
            .iter()
            .map(|(expr, _)| expr.eval_cow(batch))
            .collect::<ExecResult<Vec<_>>>()?;
        for key in &keys {
            ids.refine_by(key, None);
        }
        // Ids are dense in first-seen order: id `g` first shows at the
        // `g`-th row that brings a new maximum.
        let mut first_rows = Vec::with_capacity(ids.count);
        for (row, &id) in ids.build.iter().enumerate() {
            if id as usize == first_rows.len() {
                first_rows.push(row);
            }
        }
        columns.extend(keys.iter().map(|key| key.take(&first_rows)));
    }
    for agg in aggs {
        let input = agg.input.eval_cow(batch)?;
        columns.push(accumulate(agg.func, &input, &ids.build, ids.count)?);
    }
    Ok(RecordBatch::new(Schema::new(fields), columns)?)
}

/// Merge partial aggregates produced by [`hash_aggregate`] on disjoint
/// cells into the final result — the DCP's aggregation stage.
///
/// Correct for Count/Sum/Min/Max (re-aggregating with Sum for counts).
/// `Avg` must be decomposed by the planner into Sum + Count before the
/// partial stage; passing it here is an error.
pub fn merge_aggregates(
    partials: &[RecordBatch],
    group_count: usize,
    aggs: &[AggExpr],
) -> ExecResult<RecordBatch> {
    if aggs.iter().any(|a| a.func == AggFunc::Avg) {
        return Err(ExecError::plan(
            "AVG must be decomposed into SUM and COUNT before partial aggregation",
        ));
    }
    let Some(first) = partials.first() else {
        return Err(ExecError::plan(
            "merge_aggregates needs at least one partial",
        ));
    };
    let merged = RecordBatch::concat(partials)?;
    let schema = first.schema();
    let group_by: Vec<(Expr, String)> = schema.fields()[..group_count]
        .iter()
        .map(|f| (Expr::col(f.name.clone()), f.name.clone()))
        .collect();
    let re_aggs: Vec<AggExpr> = aggs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let col = schema.fields()[group_count + i].name.clone();
            let func = match a.func {
                AggFunc::Count => AggFunc::Sum, // counts add up
                other => other,
            };
            AggExpr::new(func, Expr::col(col), a.output.clone())
        })
        .collect();
    hash_aggregate(&merged, &group_by, &re_aggs)
}

/// Inner hash equi-join on `left_keys[i] = right_keys[i]`.
///
/// Output columns are the left schema followed by the right schema; a
/// right column whose name collides with a left column is suffixed `_r`.
/// NULL keys never match (SQL semantics), and keys of different types are
/// never equal. Output is in left row order, matches in right row order.
pub fn hash_join(
    left: &RecordBatch,
    right: &RecordBatch,
    left_keys: &[Expr],
    right_keys: &[Expr],
) -> ExecResult<RecordBatch> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(ExecError::plan("join requires equal non-empty key lists"));
    }
    // Build on the right side, probe from the left.
    let mut ids = KeyIds::new(right.num_rows(), left.num_rows());
    for (build, probe) in right_keys.iter().zip(left_keys) {
        ids.refine_by(&*build.eval_cow(right)?, Some(&*probe.eval_cow(left)?));
    }
    // Bucket the build rows by id; a counting sort keeps row order.
    let mut starts = vec![0usize; ids.count + 1];
    for &id in ids.build.iter().filter(|&&id| id != NO_ID) {
        starts[id as usize + 1] += 1;
    }
    for i in 0..ids.count {
        starts[i + 1] += starts[i];
    }
    let mut bucketed = vec![0usize; starts[ids.count]];
    let mut next = starts.clone();
    for (row, &id) in ids.build.iter().enumerate() {
        if id != NO_ID {
            bucketed[next[id as usize]] = row;
            next[id as usize] += 1;
        }
    }
    let mut left_idx = Vec::new();
    let mut right_idx = Vec::new();
    for (row, &id) in ids.probe.iter().enumerate() {
        if id != NO_ID {
            let matches = &bucketed[starts[id as usize]..starts[id as usize + 1]];
            left_idx.extend(std::iter::repeat_n(row, matches.len()));
            right_idx.extend_from_slice(matches);
        }
    }
    // Assemble output.
    let mut fields: Vec<Field> = left.schema().fields().to_vec();
    for f in right.schema().fields() {
        let name = if left.schema().index_of(&f.name).is_ok() {
            format!("{}_r", f.name)
        } else {
            f.name.clone()
        };
        fields.push(Field { name, ..f.clone() });
    }
    let columns: Vec<ColumnVector> = left
        .columns()
        .iter()
        .map(|c| c.take(&left_idx))
        .chain(right.columns().iter().map(|c| c.take(&right_idx)))
        .collect();
    Ok(RecordBatch::new(Schema::new(fields), columns)?)
}

/// ORDER BY keys resolved against a batch: `(column, descending)`.
fn order_columns<'a>(
    batch: &'a RecordBatch,
    keys: &[(String, bool)],
) -> ExecResult<Vec<(&'a ColumnVector, bool)>> {
    keys.iter()
        .map(|(name, desc)| Ok((batch.column_by_name(name)?, *desc)))
        .collect()
}

/// The ORDER BY order of rows `a` and `b`: per key NULLs first and floats
/// by [`float_key`], reversed as a whole for a descending key; rows equal
/// on every key keep their batch order, which makes the order total.
fn compare_rows(keys: &[(&ColumnVector, bool)], a: usize, b: usize) -> Ordering {
    for (col, desc) in keys {
        let ord = match (col.is_valid(a), col.is_valid(b)) {
            (false, false) => Ordering::Equal,
            (false, true) => Ordering::Less,
            (true, false) => Ordering::Greater,
            (true, true) => match col {
                ColumnVector::Int64 { values, .. } => values[a].cmp(&values[b]),
                ColumnVector::Float64 { values, .. } => {
                    float_key(values[a]).cmp(&float_key(values[b]))
                }
                ColumnVector::Utf8 { values, .. } => values[a].cmp(&values[b]),
                ColumnVector::Bool { values, .. } => values[a].cmp(&values[b]),
                ColumnVector::Date32 { values, .. } => values[a].cmp(&values[b]),
            },
        };
        if ord != Ordering::Equal {
            return if *desc { ord.reverse() } else { ord };
        }
    }
    a.cmp(&b)
}

/// Sort by `(column, descending)` pairs; NULLs sort first ascending (SQL
/// Server semantics), NaN after every number, ties keep their order.
pub fn sort(batch: &RecordBatch, keys: &[(String, bool)]) -> ExecResult<RecordBatch> {
    let keys = order_columns(batch, keys)?;
    let mut indices: Vec<usize> = (0..batch.num_rows()).collect();
    indices.sort_unstable_by(|&a, &b| compare_rows(&keys, a, b));
    Ok(batch.take(&indices))
}

/// The first `n` rows of [`sort`], without sorting the rest: candidates
/// collect in a buffer of `2n` that a selection cuts back to the best `n`
/// whenever it fills, and rows no better than the worst kept are skipped.
/// The top-n of a concatenation is the top-n of the concatenated
/// per-piece top-n's, so a scan applies this per row group and once more
/// at the end.
pub fn top_n(batch: &RecordBatch, keys: &[(String, bool)], n: usize) -> ExecResult<RecordBatch> {
    if n == 0 {
        return Ok(batch.head(0));
    }
    let keys = order_columns(batch, keys)?;
    let by_order = |a: &usize, b: &usize| compare_rows(&keys, *a, *b);
    let buffer = n.saturating_mul(2);
    let mut kept: Vec<usize> = Vec::with_capacity(buffer.min(batch.num_rows()));
    let mut worst_kept = None;
    for row in 0..batch.num_rows() {
        if worst_kept.is_some_and(|worst| by_order(&row, &worst) == Ordering::Greater) {
            continue;
        }
        kept.push(row);
        if kept.len() == buffer {
            kept.select_nth_unstable_by(n - 1, by_order);
            kept.truncate(n);
            worst_kept = Some(kept[n - 1]);
        }
    }
    kept.sort_unstable_by(by_order);
    kept.truncate(n);
    Ok(batch.take(&kept))
}

/// Keep the first `n` rows.
pub fn limit(batch: &RecordBatch, n: usize) -> RecordBatch {
    batch.head(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_columnar::Value;

    fn sales() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Int64),
            Field::nullable("discount", DataType::Float64),
        ]);
        RecordBatch::from_rows(
            schema,
            &[
                vec![Value::Str("east".into()), Value::Int(10), Value::Float(0.1)],
                vec![Value::Str("west".into()), Value::Int(20), Value::Null],
                vec![Value::Str("east".into()), Value::Int(30), Value::Float(0.2)],
                vec![Value::Str("west".into()), Value::Int(40), Value::Float(0.3)],
                vec![Value::Str("east".into()), Value::Int(50), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_and_project() {
        let b = sales();
        let f = filter(&b, &Expr::col("amount").gt(Expr::lit(20i64))).unwrap();
        assert_eq!(f.num_rows(), 3);
        let p = project(
            &f,
            &[
                (Expr::col("region"), "r".into()),
                (
                    Expr::col("amount").binary(crate::BinOp::Mul, Expr::lit(2i64)),
                    "double".into(),
                ),
            ],
        )
        .unwrap();
        assert_eq!(p.schema().fields()[1].name, "double");
        assert_eq!(p.column(1).value(0), Value::Int(60));
    }

    #[test]
    fn aggregate_grouped() {
        let b = sales();
        let out = hash_aggregate(
            &b,
            &[(Expr::col("region"), "region".into())],
            &[
                AggExpr::new(AggFunc::Sum, Expr::col("amount"), "total"),
                AggExpr::new(AggFunc::Count, Expr::col("discount"), "discounted"),
                AggExpr::new(AggFunc::Avg, Expr::col("amount"), "avg_amount"),
                AggExpr::new(AggFunc::Min, Expr::col("amount"), "lo"),
                AggExpr::new(AggFunc::Max, Expr::col("amount"), "hi"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        let sorted = sort(&out, &[("region".into(), false)]).unwrap();
        // east: 10+30+50=90, 2 non-null discounts, avg 30, min 10, max 50
        assert_eq!(
            sorted.row(0)[..4].to_vec(),
            vec![
                Value::Str("east".into()),
                Value::Int(90),
                Value::Int(2),
                Value::Float(30.0),
            ]
        );
        assert_eq!(sorted.row(0)[4], Value::Int(10));
        assert_eq!(sorted.row(0)[5], Value::Int(50));
        // west: 20+40=60
        assert_eq!(sorted.row(1)[1], Value::Int(60));
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let b = filter(&sales(), &Expr::lit(false)).unwrap();
        let out = hash_aggregate(
            &b,
            &[],
            &[
                AggExpr::new(AggFunc::Count, Expr::col("amount"), "n"),
                AggExpr::new(AggFunc::Sum, Expr::col("amount"), "s"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0), vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn count_ignores_nulls_sum_stays_integer() {
        let b = sales();
        let out = hash_aggregate(
            &b,
            &[],
            &[
                AggExpr::new(AggFunc::Count, Expr::col("discount"), "n"),
                AggExpr::new(AggFunc::Sum, Expr::col("amount"), "s"),
            ],
        )
        .unwrap();
        assert_eq!(out.row(0), vec![Value::Int(3), Value::Int(150)]);
    }

    #[test]
    fn merge_partial_aggregates() {
        let b = sales();
        // Split into two "cells" and aggregate each, then merge.
        let mask_lo: polaris_columnar::Bitmap =
            [true, true, false, false, false].into_iter().collect();
        let mask_hi: polaris_columnar::Bitmap =
            [false, false, true, true, true].into_iter().collect();
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, Expr::col("amount"), "total"),
            AggExpr::new(AggFunc::Count, Expr::col("amount"), "n"),
            AggExpr::new(AggFunc::Max, Expr::col("amount"), "hi"),
        ];
        let group = vec![(Expr::col("region"), "region".to_owned())];
        let p1 = hash_aggregate(&b.filter(&mask_lo), &group, &aggs).unwrap();
        let p2 = hash_aggregate(&b.filter(&mask_hi), &group, &aggs).unwrap();
        let merged = merge_aggregates(&[p1, p2], 1, &aggs).unwrap();
        let sorted = sort(&merged, &[("region".into(), false)]).unwrap();
        assert_eq!(
            sorted.row(0),
            vec![
                Value::Str("east".into()),
                Value::Int(90),
                Value::Int(3),
                Value::Int(50)
            ]
        );
        assert_eq!(
            sorted.row(1),
            vec![
                Value::Str("west".into()),
                Value::Int(60),
                Value::Int(2),
                Value::Int(40)
            ]
        );
        // AVG must be rejected
        let bad = vec![AggExpr::new(AggFunc::Avg, Expr::col("amount"), "a")];
        assert!(merge_aggregates(&[sorted], 1, &bad).is_err());
    }

    fn regions() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("manager", DataType::Utf8),
        ]);
        RecordBatch::from_rows(
            schema,
            &[
                vec![Value::Str("east".into()), Value::Str("ann".into())],
                vec![Value::Str("west".into()), Value::Str("bob".into())],
                vec![Value::Str("north".into()), Value::Str("cat".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn join_matches_and_renames_collisions() {
        let left = sales();
        let right = regions();
        let out = hash_join(&left, &right, &[Expr::col("region")], &[Expr::col("name")]).unwrap();
        assert_eq!(out.num_rows(), 5); // every sale matches a region
        assert!(out.schema().index_of("manager").is_ok());
        // join with a collision: rename kicks in
        let out2 = hash_join(&left, &left, &[Expr::col("region")], &[Expr::col("region")]).unwrap();
        assert!(out2.schema().index_of("region_r").is_ok());
        // east x east = 3*3, west x west = 2*2
        assert_eq!(out2.num_rows(), 13);
    }

    #[test]
    fn join_null_keys_never_match() {
        let schema = Schema::new(vec![Field::nullable("k", DataType::Int64)]);
        let l = RecordBatch::from_rows(schema.clone(), &[vec![Value::Int(1)], vec![Value::Null]])
            .unwrap();
        let r = RecordBatch::from_rows(schema, &[vec![Value::Null], vec![Value::Int(1)]]).unwrap();
        let out = hash_join(&l, &r, &[Expr::col("k")], &[Expr::col("k")]).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn join_key_arity_checked() {
        let b = sales();
        assert!(hash_join(&b, &b, &[], &[]).is_err());
        assert!(hash_join(&b, &b, &[Expr::col("region")], &[]).is_err());
    }

    #[test]
    fn sort_multi_key_with_nulls_first() {
        let b = sales();
        let out = sort(&b, &[("discount".into(), false), ("amount".into(), true)]).unwrap();
        // NULL discounts first (rows amount 50, 20 desc), then 0.1, 0.2, 0.3
        let amounts: Vec<Value> = (0..out.num_rows())
            .map(|i| out.column(1).value(i))
            .collect();
        assert_eq!(
            amounts,
            vec![
                Value::Int(50),
                Value::Int(20),
                Value::Int(10),
                Value::Int(30),
                Value::Int(40)
            ]
        );
    }

    fn floats(values: &[Option<f64>]) -> RecordBatch {
        let schema = Schema::new(vec![
            Field::nullable("x", DataType::Float64),
            Field::new("row", DataType::Int64),
        ]);
        let rows: Vec<Vec<Value>> = values
            .iter()
            .enumerate()
            .map(|(i, v)| vec![v.map_or(Value::Null, Value::Float), Value::Int(i as i64)])
            .collect();
        RecordBatch::from_rows(schema, &rows).unwrap()
    }

    fn ints_of(batch: &RecordBatch, col: &str) -> Vec<i64> {
        let col = batch.column_by_name(col).unwrap();
        (0..batch.num_rows())
            .map(|i| col.value(i).as_int().unwrap())
            .collect()
    }

    #[test]
    fn float_keys_have_one_order_and_one_equality() {
        let ordered = [
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for pair in ordered.windows(2) {
            assert!(float_key(pair[0]) < float_key(pair[1]), "{pair:?}");
        }
        assert_eq!(float_key(-0.0), float_key(0.0));
        assert_eq!(float_key(f64::NAN), float_key(-f64::NAN));
    }

    #[test]
    fn nan_sorts_last_groups_once_and_joins() {
        let nan = f64::NAN;
        let b = floats(&[Some(nan), Some(1.0), None, Some(-0.0), Some(nan), Some(0.0)]);
        // NULL first, numbers, NaN last; equal keys keep their order.
        let by_x = [("x".to_owned(), false)];
        assert_eq!(
            ints_of(&sort(&b, &by_x).unwrap(), "row"),
            [2, 3, 5, 1, 0, 4]
        );
        assert_eq!(ints_of(&top_n(&b, &by_x, 3).unwrap(), "row"), [2, 3, 5]);
        let desc = [("x".to_owned(), true)];
        assert_eq!(
            ints_of(&sort(&b, &desc).unwrap(), "row"),
            [0, 4, 1, 3, 5, 2]
        );
        // One NaN group, one zero group (`-0.0 == 0.0`), one NULL group.
        let groups = hash_aggregate(
            &b,
            &[(Expr::col("x"), "x".into())],
            &[AggExpr::new(AggFunc::Count, Expr::col("row"), "n")],
        )
        .unwrap();
        assert_eq!(ints_of(&groups, "n"), [2, 1, 1, 2]);
        // NaN joins NaN, zero joins either zero, NULL joins nothing.
        let joined = hash_join(&b, &b, &[Expr::col("x")], &[Expr::col("x")]).unwrap();
        assert_eq!(ints_of(&joined, "row"), [0, 0, 1, 3, 3, 4, 4, 5, 5]);
        assert_eq!(ints_of(&joined, "row_r"), [0, 4, 1, 3, 5, 0, 4, 3, 5]);
    }

    #[test]
    fn integer_sum_overflow_is_an_error_in_both_stages() {
        let schema = Schema::new(vec![Field::new("v", DataType::Int64)]);
        let half = |v: i64| RecordBatch::from_rows(schema.clone(), &[vec![Value::Int(v)]]).unwrap();
        let aggs = [AggExpr::new(AggFunc::Sum, Expr::col("v"), "s")];
        let both = RecordBatch::concat(&[half(i64::MAX), half(1)]).unwrap();
        let err = hash_aggregate(&both, &[], &aggs).unwrap_err();
        assert!(matches!(err, ExecError::Overflow), "{err}");
        // Each partial fits; their merge does not.
        let partials = [
            hash_aggregate(&half(i64::MAX), &[], &aggs).unwrap(),
            hash_aggregate(&half(1), &[], &aggs).unwrap(),
        ];
        let err = merge_aggregates(&partials, 0, &aggs).unwrap_err();
        assert!(matches!(err, ExecError::Overflow), "{err}");
        // The extremes themselves are fine.
        let fits = RecordBatch::concat(&[half(i64::MAX), half(i64::MIN)]).unwrap();
        let out = hash_aggregate(&fits, &[], &aggs).unwrap();
        assert_eq!(out.row(0), vec![Value::Int(-1)]);
    }

    #[test]
    fn sum_of_text_is_an_error_unless_all_null() {
        let b = sales();
        let sum =
            |col: &str| hash_aggregate(&b, &[], &[AggExpr::new(AggFunc::Sum, Expr::col(col), "s")]);
        assert!(sum("region").is_err());
        let nulls = filter(&b, &Expr::IsNull(Box::new(Expr::col("discount")))).unwrap();
        let out = hash_aggregate(
            &nulls,
            &[],
            &[AggExpr::new(AggFunc::Avg, Expr::col("discount"), "a")],
        )
        .unwrap();
        assert_eq!(out.row(0), vec![Value::Null]);
    }

    #[test]
    fn top_n_survives_many_compactions() {
        // Descending input makes every row a candidate, so the buffer of
        // 2n fills and is cut back over and over.
        let b = floats(
            &(0..1000)
                .rev()
                .map(|i| Some(f64::from(i % 100)))
                .collect::<Vec<_>>(),
        );
        let keys = [("x".to_owned(), false)];
        let want = limit(&sort(&b, &keys).unwrap(), 7);
        assert_eq!(top_n(&b, &keys, 7).unwrap(), want);
        assert_eq!(top_n(&b, &keys, 0).unwrap().num_rows(), 0);
        assert_eq!(
            top_n(&b, &keys, usize::MAX).unwrap(),
            sort(&b, &keys).unwrap()
        );
    }

    #[test]
    fn limit_truncates() {
        let b = sales();
        assert_eq!(limit(&b, 2).num_rows(), 2);
        assert_eq!(limit(&b, 99).num_rows(), 5);
        assert_eq!(limit(&b, 0).num_rows(), 0);
    }
}
