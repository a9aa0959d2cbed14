//! Scalar expressions with SQL NULL semantics and statistics-based pruning.
//!
//! Evaluation is column-at-a-time: [`Expr::eval`] resolves each column
//! reference once and runs one typed loop per operator over the value
//! vectors. Literals stay scalars until an operator (or the final result)
//! needs them per row. [`Expr::eval_row`] is the row-wise definition of the
//! same semantics, kept as the oracle the kernels are tested against.

use crate::{ExecError, ExecResult};
use polaris_columnar::{Bitmap, ColumnStats, ColumnVector, DataType, RecordBatch, StrVec, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (NULL on division by zero, like T-SQL with ANSI_WARNINGS off)
    Div,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// three-valued `AND`
    And,
    /// three-valued `OR`
    Or,
}

/// A scalar expression tree evaluated over the columns of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation (NULL stays NULL).
    Not(Box<Expr>),
    /// `IS NULL`.
    IsNull(Box<Expr>),
    /// `expr LIKE '%s%'` restricted to substring match.
    Contains {
        /// String-typed operand.
        expr: Box<Expr>,
        /// Substring to search for.
        needle: String,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Binary op helper.
    pub fn binary(self, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(right),
        }
    }

    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinOp::Eq, other)
    }

    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinOp::Lt, other)
    }

    /// `self <= other`
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinOp::LtEq, other)
    }

    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinOp::Gt, other)
    }

    /// `self >= other`
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinOp::GtEq, other)
    }

    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinOp::And, other)
    }

    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinOp::Or, other)
    }

    /// Evaluate row `row` of `batch`: the row-wise reference for
    /// [`Expr::eval`]. Operators call `eval`; this is for test oracles.
    pub fn eval_row(&self, batch: &RecordBatch, row: usize) -> ExecResult<Value> {
        Ok(match self {
            Expr::Column(name) => batch.column_by_name(name)?.value(row),
            Expr::Literal(v) => v.clone(),
            Expr::Binary { left, op, right } => {
                let l = left.eval_row(batch, row)?;
                let r = right.eval_row(batch, row)?;
                eval_binary(&l, *op, &r)?
            }
            Expr::Not(inner) => eval_not(&inner.eval_row(batch, row)?)?,
            Expr::IsNull(inner) => Value::Bool(inner.eval_row(batch, row)?.is_null()),
            Expr::Contains { expr, needle } => eval_contains(&expr.eval_row(batch, row)?, needle)?,
        })
    }

    /// Evaluate over every row, producing a column of results.
    ///
    /// Equal, row for row, to [`Expr::eval_row`], and an error exactly when
    /// some row would be one (a type error only counts on rows whose
    /// operands are non-NULL, an overflow only where it happens). An
    /// unknown column is an error whatever the row count.
    pub fn eval(&self, batch: &RecordBatch) -> ExecResult<ColumnVector> {
        Ok(self.eval_cow(batch)?.into_owned())
    }

    /// [`Expr::eval`] that borrows the batch's column for a bare column
    /// reference instead of copying it.
    pub(crate) fn eval_cow<'a>(
        &'a self,
        batch: &'a RecordBatch,
    ) -> ExecResult<Cow<'a, ColumnVector>> {
        let n = batch.num_rows();
        // A scalar result (and an empty input) takes its type from the
        // schema: a NULL literal alone carries none.
        let result_type = || self.result_type(batch.schema());
        if n == 0 {
            return Ok(Cow::Owned(ColumnVector::empty(result_type()?)));
        }
        Ok(match self.eval_datum(batch)? {
            Datum::Col(col) => col,
            Datum::Scalar(v) => Cow::Owned(broadcast(&v, n, result_type()?)),
        })
    }

    /// Evaluate as a predicate: a bitmap set where the expression is TRUE
    /// (NULL and FALSE both filter the row out, per SQL semantics).
    pub fn eval_predicate(&self, batch: &RecordBatch) -> ExecResult<Bitmap> {
        let n = batch.num_rows();
        if n == 0 {
            return Ok(Bitmap::new());
        }
        Ok(match self.eval_datum(batch)? {
            Datum::Scalar(v) if *v == Value::Bool(true) => Bitmap::all_set(n),
            Datum::Col(col) => match &*col {
                ColumnVector::Bool { values, validity } => {
                    let mut mask: Bitmap = values.iter().copied().collect();
                    if let Some(valid) = validity {
                        mask.intersect_with(valid);
                    }
                    mask
                }
                _ => Bitmap::with_len(n),
            },
            Datum::Scalar(_) => Bitmap::with_len(n),
        })
    }

    /// One typed pass per operator over the operands' value vectors.
    fn eval_datum<'a>(&'a self, batch: &'a RecordBatch) -> ExecResult<Datum<'a>> {
        let n = batch.num_rows();
        Ok(match self {
            Expr::Column(name) => Datum::Col(Cow::Borrowed(batch.column_by_name(name)?)),
            Expr::Literal(v) => Datum::Scalar(Cow::Borrowed(v)),
            Expr::Binary { left, op, right } => {
                let (l, op, r) = (left.eval_datum(batch)?, *op, right.eval_datum(batch)?);
                match (&l, op, &r) {
                    (Datum::Scalar(a), _, Datum::Scalar(b)) => {
                        Datum::scalar(eval_binary(a, op, b)?)
                    }
                    (_, BinOp::And | BinOp::Or, _) => Datum::col(logic_kernel(&l, op, &r, n)),
                    // Every other operator is strict in NULL.
                    _ if l.is_null_scalar() || r.is_null_scalar() => Datum::scalar(Value::Null),
                    (_, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, _) => {
                        Datum::col(arith_kernel(&l, op, &r, n)?)
                    }
                    _ => Datum::col(compare_kernel(&l, op, &r, n)?),
                }
            }
            Expr::Not(inner) => match inner.eval_datum(batch)? {
                Datum::Scalar(v) => Datum::scalar(eval_not(&v)?),
                Datum::Col(col) => Datum::col(match &*col {
                    ColumnVector::Bool { values, validity } => bool_column(
                        (0..n).map(|i| is_set(validity, i) && !values[i]).collect(),
                        validity.clone(),
                    ),
                    other => all_null_or(other, DataType::Bool, |v| eval_not(&v))?,
                }),
            },
            Expr::IsNull(inner) => match inner.eval_datum(batch)? {
                Datum::Scalar(v) => Datum::scalar(Value::Bool(v.is_null())),
                Datum::Col(col) => Datum::col(bool_column(
                    (0..n).map(|i| !col.is_valid(i)).collect(),
                    None,
                )),
            },
            Expr::Contains { expr, needle } => match expr.eval_datum(batch)? {
                Datum::Scalar(v) => Datum::scalar(eval_contains(&v, needle)?),
                Datum::Col(col) => Datum::col(match &*col {
                    ColumnVector::Utf8 { values, validity } => bool_column(
                        (0..n)
                            .map(|i| is_set(validity, i) && values[i].contains(needle.as_str()))
                            .collect(),
                        validity.clone(),
                    ),
                    other => all_null_or(other, DataType::Bool, |v| eval_contains(&v, needle))?,
                }),
            },
        })
    }

    /// Infer the result type against a schema (used by projections).
    pub fn result_type(&self, schema: &polaris_columnar::Schema) -> ExecResult<DataType> {
        Ok(match self {
            Expr::Column(name) => schema.field(name)?.data_type,
            Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int64),
            Expr::Binary { left, op, right } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    let l = left.result_type(schema)?;
                    let r = right.result_type(schema)?;
                    if l == DataType::Float64 || r == DataType::Float64 {
                        DataType::Float64
                    } else {
                        DataType::Int64
                    }
                }
                BinOp::Div => DataType::Float64,
                _ => DataType::Bool,
            },
            Expr::Not(_) | Expr::IsNull(_) | Expr::Contains { .. } => DataType::Bool,
        })
    }

    /// Collect every column name this expression references.
    pub fn referenced_columns(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Expr::Column(name) => {
                out.insert(name.clone());
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.referenced_columns(out),
            Expr::Contains { expr, .. } => expr.referenced_columns(out),
        }
    }

    /// Could any row of a chunk with the given per-column statistics match
    /// this predicate? Conservative: `true` when unsure. Used for row-group
    /// and file pruning during scans.
    pub fn may_match(&self, stats_of: &dyn Fn(&str) -> Option<ColumnStats>) -> bool {
        match self {
            Expr::Binary { left, op, right } => match (left.as_ref(), op, right.as_ref()) {
                (_, BinOp::And, _) => left.may_match(stats_of) && right.may_match(stats_of),
                (_, BinOp::Or, _) => left.may_match(stats_of) || right.may_match(stats_of),
                (Expr::Column(c), cmp, Expr::Literal(v))
                | (Expr::Literal(v), cmp, Expr::Column(c))
                    if !v.is_null() =>
                {
                    let Some(stats) = stats_of(c) else {
                        return true;
                    };
                    // Normalize to column-on-left orientation.
                    let flipped = matches!(left.as_ref(), Expr::Literal(_));
                    let cmp = if flipped { flip(*cmp) } else { *cmp };
                    match cmp {
                        BinOp::Eq => stats.may_contain(v),
                        BinOp::Lt => stats.may_contain_lt(v),
                        BinOp::Gt => stats.may_contain_gt(v),
                        BinOp::LtEq => stats.may_contain_lt(v) || stats.may_contain(v),
                        BinOp::GtEq => stats.may_contain_gt(v) || stats.may_contain(v),
                        // NotEq and arithmetic: can't prune usefully.
                        _ => true,
                    }
                }
                _ => true,
            },
            // Bare literals, NOT, IS NULL, LIKE: no pruning.
            _ => true,
        }
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// SQL three-valued AND/OR; `None` is NULL (and any non-boolean operand).
fn three_valued(op: BinOp, l: Option<bool>, r: Option<bool>) -> Option<bool> {
    let dominant = op == BinOp::Or;
    match (l, r) {
        (Some(a), _) | (_, Some(a)) if a == dominant => Some(dominant),
        (Some(_), Some(_)) => Some(!dominant),
        _ => None,
    }
}

fn compare_holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison: {op}"),
    }
}

fn checked_int_op(op: BinOp, a: i64, b: i64) -> ExecResult<i64> {
    match op {
        BinOp::Add => a.checked_add(b),
        BinOp::Sub => a.checked_sub(b),
        BinOp::Mul => a.checked_mul(b),
        _ => unreachable!("not integer arithmetic: {op}"),
    }
    .ok_or(ExecError::Overflow)
}

/// Float `+ - * /`; division by zero is NULL.
fn float_op(op: BinOp, a: f64, b: f64) -> Option<f64> {
    match op {
        BinOp::Add => Some(a + b),
        BinOp::Sub => Some(a - b),
        BinOp::Mul => Some(a * b),
        BinOp::Div => (b != 0.0).then(|| a / b),
        _ => unreachable!("not arithmetic: {op}"),
    }
}

fn incomparable(l: impl fmt::Display, r: impl fmt::Display) -> ExecError {
    ExecError::plan(format!("cannot compare {l} with {r}"))
}

fn non_numeric(l: impl fmt::Display, r: impl fmt::Display) -> ExecError {
    ExecError::plan(format!("arithmetic on non-numeric values {l} and {r}"))
}

/// One binary operator over two scalars: literal folding and the row-wise
/// reference.
fn eval_binary(l: &Value, op: BinOp, r: &Value) -> ExecResult<Value> {
    // AND/OR are not strict in NULL.
    if matches!(op, BinOp::And | BinOp::Or) {
        return Ok(three_valued(op, l.as_bool(), r.as_bool()).map_or(Value::Null, Value::Bool));
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    Ok(match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => match (l, r) {
            (Value::Int(a), Value::Int(b)) if op != BinOp::Div => {
                Value::Int(checked_int_op(op, *a, *b)?)
            }
            _ => {
                let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
                    return Err(non_numeric(l, r));
                };
                float_op(op, a, b).map_or(Value::Null, Value::Float)
            }
        },
        _ => match l.sql_cmp(r) {
            None => return Err(incomparable(l, r)),
            Some(ord) => Value::Bool(compare_holds(op, ord)),
        },
    })
}

fn eval_not(v: &Value) -> ExecResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Bool(b) => Ok(Value::Bool(!b)),
        other => Err(ExecError::plan(format!("NOT applied to non-bool {other}"))),
    }
}

fn eval_contains(v: &Value, needle: &str) -> ExecResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::Bool(s.contains(needle))),
        other => Err(ExecError::plan(format!(
            "LIKE applied to non-string {other}"
        ))),
    }
}

/// An evaluated operand: a column, or a scalar standing for every row.
enum Datum<'a> {
    Col(Cow<'a, ColumnVector>),
    Scalar(Cow<'a, Value>),
}

/// One side of a typed kernel: a column's values (a slice, or a
/// [`StrVec`]) or a broadcast scalar.
enum Side<'a, C: Index<usize> + ?Sized> {
    Col(&'a C),
    Const(&'a C::Output),
}

impl<C: Index<usize> + ?Sized> Side<'_, C> {
    #[inline]
    fn get(&self, i: usize) -> &C::Output {
        match self {
            Side::Col(values) => &values[i],
            Side::Const(v) => v,
        }
    }
}

macro_rules! typed_side {
    ($name:ident, $ty:ty, $column:ident, $scalar:ident) => {
        fn $name(&self) -> Option<Side<'_, $ty>> {
            match self {
                Datum::Col(col) => match &**col {
                    ColumnVector::$column { values, .. } => Some(Side::Col(values)),
                    _ => None,
                },
                Datum::Scalar(v) => match &**v {
                    Value::$scalar(v) => {
                        // A `&String` becomes the `&str` a `StrVec` yields.
                        let v: &<$ty as Index<usize>>::Output = v;
                        Some(Side::Const(v))
                    }
                    _ => None,
                },
            }
        }
    };
}

impl Datum<'_> {
    fn col(col: ColumnVector) -> Self {
        Datum::Col(Cow::Owned(col))
    }

    fn scalar(v: Value) -> Self {
        Datum::Scalar(Cow::Owned(v))
    }

    fn is_null_scalar(&self) -> bool {
        matches!(self, Datum::Scalar(v) if v.is_null())
    }

    fn validity(&self) -> Option<&Bitmap> {
        match self {
            Datum::Col(col) => col.validity(),
            Datum::Scalar(_) => None,
        }
    }

    fn is_float(&self) -> bool {
        match self {
            Datum::Col(col) => col.data_type() == DataType::Float64,
            Datum::Scalar(v) => v.data_type() == Some(DataType::Float64),
        }
    }

    /// Row `i` as a scalar — error messages only.
    fn value(&self, i: usize) -> Value {
        match self {
            Datum::Col(col) => col.value(i),
            Datum::Scalar(v) => (**v).clone(),
        }
    }

    /// Row `i` as a three-valued boolean (`as_bool` per row).
    fn bool_at(&self, i: usize) -> Option<bool> {
        match self {
            Datum::Col(col) => match &**col {
                ColumnVector::Bool { values, validity } => is_set(validity, i).then(|| values[i]),
                _ => None,
            },
            Datum::Scalar(v) => v.as_bool(),
        }
    }

    typed_side!(ints, [i64], Int64, Int);
    typed_side!(floats, [f64], Float64, Float);
    typed_side!(strs, StrVec, Utf8, Str);
    typed_side!(bools, [bool], Bool, Bool);
    typed_side!(dates, [i32], Date32, Date);
}

fn is_set(validity: &Option<Bitmap>, i: usize) -> bool {
    validity.as_ref().is_none_or(|m| m.get(i))
}

/// A mask is kept only while it hides a row, as `ColumnVector::push` does.
fn dense_validity(validity: Option<Bitmap>) -> Option<Bitmap> {
    validity.filter(|m| m.count_set() < m.len())
}

fn bool_column(values: Vec<bool>, validity: Option<Bitmap>) -> ColumnVector {
    ColumnVector::Bool {
        values,
        validity: dense_validity(validity),
    }
}

/// `n` copies of `v`; a NULL becomes `n` NULLs of `null_type`.
fn broadcast(v: &Value, n: usize, null_type: DataType) -> ColumnVector {
    let validity = None;
    match v {
        Value::Null => ColumnVector::nulls(null_type, n),
        Value::Int(v) => ColumnVector::Int64 {
            values: vec![*v; n],
            validity,
        },
        Value::Float(v) => ColumnVector::Float64 {
            values: vec![*v; n],
            validity,
        },
        Value::Str(v) => ColumnVector::Utf8 {
            values: std::iter::repeat_n(v, n).collect(),
            validity,
        },
        Value::Bool(v) => ColumnVector::Bool {
            values: vec![*v; n],
            validity,
        },
        Value::Date(v) => ColumnVector::Date32 {
            values: vec![*v; n],
            validity,
        },
    }
}

/// Rows where both operands are non-NULL (`None` = every row).
fn both_valid(l: &Datum<'_>, r: &Datum<'_>) -> Option<Bitmap> {
    match (l.validity(), r.validity()) {
        (None, None) => None,
        (Some(m), None) | (None, Some(m)) => Some(m.clone()),
        (Some(a), Some(b)) => {
            let mut both = a.clone();
            both.intersect_with(b);
            Some(both)
        }
    }
}

/// Apply `f` to every row where both sides are non-NULL, in row order;
/// `Ok(None)` makes the row NULL. NULL rows hold `O::default()`.
fn zip_rows<A: Index<usize> + ?Sized, B: Index<usize> + ?Sized, O: Default>(
    a: Side<'_, A>,
    b: Side<'_, B>,
    n: usize,
    mut validity: Option<Bitmap>,
    f: impl Fn(&A::Output, &B::Output) -> ExecResult<Option<O>>,
) -> ExecResult<(Vec<O>, Option<Bitmap>)> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let v = if is_set(&validity, i) {
            let v = f(a.get(i), b.get(i))?;
            if v.is_none() {
                validity.get_or_insert_with(|| Bitmap::all_set(n)).clear(i);
            }
            v
        } else {
            None
        };
        out.push(v.unwrap_or_default());
    }
    Ok((out, dense_validity(validity)))
}

/// A column whose type the operator rejects: the error `check` gives for
/// the first non-NULL row, as row-wise evaluation would; every row NULL
/// otherwise.
fn all_null_or(
    col: &ColumnVector,
    null_type: DataType,
    check: impl Fn(Value) -> ExecResult<Value>,
) -> ExecResult<ColumnVector> {
    if let Some(i) = (0..col.len()).find(|&i| col.is_valid(i)) {
        check(col.value(i))?;
    }
    Ok(ColumnVector::nulls(null_type, col.len()))
}

/// Operands whose type pair the operator rejects: `error` over the first
/// row where both are non-NULL, every row NULL if there is none.
fn rejected_pair(
    l: &Datum<'_>,
    r: &Datum<'_>,
    n: usize,
    null_type: DataType,
    error: fn(Value, Value) -> ExecError,
) -> ExecResult<ColumnVector> {
    let first = match both_valid(l, r) {
        None => Some(0),
        Some(valid) => valid.iter_set().next(),
    };
    match first {
        Some(i) => Err(error(l.value(i), r.value(i))),
        None => Ok(ColumnVector::nulls(null_type, n)),
    }
}

/// Int64/Float64 as the float arithmetic and mixed comparisons see them.
trait Numeric: Copy {
    fn as_f64(self) -> f64;
}

impl Numeric for i64 {
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl Numeric for f64 {
    fn as_f64(self) -> f64 {
        self
    }
}

fn logic_kernel(l: &Datum<'_>, op: BinOp, r: &Datum<'_>, n: usize) -> ColumnVector {
    let rows: Vec<Option<bool>> = (0..n)
        .map(|i| three_valued(op, l.bool_at(i), r.bool_at(i)))
        .collect();
    bool_column(
        rows.iter().map(|v| v.unwrap_or_default()).collect(),
        Some(rows.iter().map(Option::is_some).collect()),
    )
}

fn arith_kernel(l: &Datum<'_>, op: BinOp, r: &Datum<'_>, n: usize) -> ExecResult<ColumnVector> {
    fn floats<A: Numeric, B: Numeric>(
        a: Side<'_, [A]>,
        op: BinOp,
        b: Side<'_, [B]>,
        n: usize,
        valid: Option<Bitmap>,
    ) -> ExecResult<ColumnVector> {
        let (values, validity) = zip_rows(a, b, n, valid, |a, b| {
            Ok(float_op(op, a.as_f64(), b.as_f64()))
        })?;
        Ok(ColumnVector::Float64 { values, validity })
    }
    let valid = both_valid(l, r);
    match (l.ints(), l.floats(), r.ints(), r.floats()) {
        (Some(a), _, Some(b), _) if op != BinOp::Div => {
            let (values, validity) =
                zip_rows(a, b, n, valid, |a, b| checked_int_op(op, *a, *b).map(Some))?;
            Ok(ColumnVector::Int64 { values, validity })
        }
        (Some(a), _, Some(b), _) => floats(a, op, b, n, valid),
        (Some(a), _, _, Some(b)) => floats(a, op, b, n, valid),
        (_, Some(a), Some(b), _) => floats(a, op, b, n, valid),
        (_, Some(a), _, Some(b)) => floats(a, op, b, n, valid),
        _ => {
            let float = op == BinOp::Div || l.is_float() || r.is_float();
            let null_type = if float {
                DataType::Float64
            } else {
                DataType::Int64
            };
            rejected_pair(l, r, n, null_type, non_numeric)
        }
    }
}

fn compare_kernel(l: &Datum<'_>, op: BinOp, r: &Datum<'_>, n: usize) -> ExecResult<ColumnVector> {
    let valid = both_valid(l, r);
    macro_rules! compare {
        ($a:expr, $b:expr, |$x:ident, $y:ident| $ord:expr) => {{
            let (values, validity) = zip_rows($a, $b, n, valid, |$x, $y| match $ord {
                Some(ord) => Ok(Some(compare_holds(op, ord))),
                None => Err(incomparable($x, $y)),
            })?;
            return Ok(ColumnVector::Bool { values, validity });
        }};
    }
    // The pairs `Value::sql_cmp` orders; a NaN operand is an error.
    if let (Some(a), Some(b)) = (l.ints(), r.ints()) {
        compare!(a, b, |a, b| Some(a.cmp(b)))
    }
    if let (Some(a), Some(b)) = (l.floats(), r.floats()) {
        compare!(a, b, |a, b| a.partial_cmp(b))
    }
    if let (Some(a), Some(b)) = (l.ints(), r.floats()) {
        compare!(a, b, |a, b| a.as_f64().partial_cmp(b))
    }
    if let (Some(a), Some(b)) = (l.floats(), r.ints()) {
        compare!(a, b, |a, b| a.partial_cmp(&b.as_f64()))
    }
    if let (Some(a), Some(b)) = (l.strs(), r.strs()) {
        compare!(a, b, |a, b| Some(a.cmp(b)))
    }
    if let (Some(a), Some(b)) = (l.bools(), r.bools()) {
        compare!(a, b, |a, b| Some(a.cmp(b)))
    }
    if let (Some(a), Some(b)) = (l.dates(), r.dates()) {
        compare!(a, b, |a, b| Some(a.cmp(b)))
    }
    if let (Some(a), Some(b)) = (l.dates(), r.ints()) {
        compare!(a, b, |a, b| Some(i64::from(*a).cmp(b)))
    }
    if let (Some(a), Some(b)) = (l.ints(), r.dates()) {
        compare!(a, b, |a, b| Some(a.cmp(&i64::from(*b))))
    }
    rejected_pair(l, r, n, DataType::Bool, incomparable)
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` — non-null count; use a literal for `COUNT(*)`.
    Count,
    /// `SUM(expr)`
    Sum,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
    /// `AVG(expr)`
    Avg,
}

/// One aggregate in a GROUP BY projection.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Function.
    pub func: AggFunc,
    /// Input expression.
    pub input: Expr,
    /// Output column name.
    pub output: String,
}

impl AggExpr {
    /// Build an aggregate.
    pub fn new(func: AggFunc, input: Expr, output: impl Into<String>) -> Self {
        AggExpr {
            func,
            input,
            output: output.into(),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_columnar::{Field, Schema};

    fn batch() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::nullable("tag", DataType::Utf8),
        ]);
        RecordBatch::from_rows(
            schema,
            &[
                vec![
                    Value::Int(1),
                    Value::Float(10.0),
                    Value::Str("alpha".into()),
                ],
                vec![Value::Int(2), Value::Float(20.0), Value::Null],
                vec![Value::Int(3), Value::Float(30.0), Value::Str("beta".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let b = batch();
        let e = Expr::col("id").binary(BinOp::Add, Expr::lit(10i64));
        assert_eq!(e.eval_row(&b, 0).unwrap(), Value::Int(11));
        let e = Expr::col("price").binary(BinOp::Mul, Expr::lit(2.0));
        assert_eq!(e.eval_row(&b, 1).unwrap(), Value::Float(40.0));
        let e = Expr::col("id").gt(Expr::lit(1i64));
        assert_eq!(e.eval_row(&b, 0).unwrap(), Value::Bool(false));
        assert_eq!(e.eval_row(&b, 2).unwrap(), Value::Bool(true));
        // int/int division is exact float
        let e = Expr::lit(7i64).binary(BinOp::Div, Expr::lit(2i64));
        assert_eq!(e.eval_row(&b, 0).unwrap(), Value::Float(3.5));
        // division by zero is NULL
        let e = Expr::lit(7i64).binary(BinOp::Div, Expr::lit(0i64));
        assert_eq!(e.eval_row(&b, 0).unwrap(), Value::Null);
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let b = batch();
        for (op, lhs) in [
            (BinOp::Add, i64::MAX),
            (BinOp::Sub, i64::MIN),
            (BinOp::Mul, i64::MAX),
        ] {
            // id is 1, 2, 3: every row overflows for + and -, rows 2 and 3 for *.
            let e = Expr::lit(lhs).binary(op, Expr::col("id"));
            assert!(matches!(e.eval(&b), Err(ExecError::Overflow)), "{op}");
            assert!(
                matches!(e.eval_row(&b, 2), Err(ExecError::Overflow)),
                "{op}"
            );
            let folded = Expr::lit(lhs).binary(op, Expr::lit(2i64));
            assert!(matches!(folded.eval(&b), Err(ExecError::Overflow)), "{op}");
        }
        // Division never overflows: it is float division.
        let e = Expr::lit(i64::MIN).binary(BinOp::Div, Expr::lit(-1i64));
        assert_eq!(
            e.eval_row(&b, 0).unwrap(),
            Value::Float(i64::MIN as f64 / -1.0)
        );
    }

    #[test]
    fn columns_equal_rows() {
        let b = batch();
        let e = Expr::col("tag")
            .eq(Expr::lit("alpha"))
            .or(Expr::col("price")
                .binary(BinOp::Div, Expr::col("id"))
                .gt(Expr::lit(9.5)));
        let col = e.eval(&b).unwrap();
        let rows: Vec<Value> = (0..3).map(|i| e.eval_row(&b, i).unwrap()).collect();
        assert_eq!(
            col,
            ColumnVector::from_values(DataType::Bool, &rows).unwrap()
        );
        assert_eq!(
            rows,
            [Value::Bool(true), Value::Bool(true), Value::Bool(true)]
        );
        // A bare NULL literal takes the type `result_type` infers.
        let nulls = Expr::Literal(Value::Null).eval(&b).unwrap();
        assert_eq!(nulls, ColumnVector::nulls(DataType::Int64, 3));
        // A type error counts only on rows where both operands are non-NULL.
        let only_null_tag = b.filter(&[false, true, false].into_iter().collect());
        let e = Expr::col("tag").binary(BinOp::Add, Expr::lit(1i64));
        assert!(e.eval(&b).is_err());
        assert_eq!(
            e.eval(&only_null_tag).unwrap(),
            ColumnVector::nulls(DataType::Int64, 1)
        );
    }

    #[test]
    fn null_propagation_and_three_valued_logic() {
        let b = batch();
        // tag = 'alpha' is NULL for row 1
        let cmp = Expr::col("tag").eq(Expr::lit("alpha"));
        assert_eq!(cmp.eval_row(&b, 1).unwrap(), Value::Null);
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE
        let null = Expr::Literal(Value::Null);
        let f = Expr::lit(false);
        let t = Expr::lit(true);
        assert_eq!(
            null.clone().and(f.clone()).eval_row(&b, 0).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            null.clone().or(t).eval_row(&b, 0).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            null.clone().and(Expr::lit(true)).eval_row(&b, 0).unwrap(),
            Value::Null
        );
        // NOT NULL = NULL
        assert_eq!(
            Expr::Not(Box::new(null)).eval_row(&b, 0).unwrap(),
            Value::Null
        );
        // IS NULL
        let isnull = Expr::IsNull(Box::new(Expr::col("tag")));
        assert_eq!(isnull.eval_row(&b, 1).unwrap(), Value::Bool(true));
        assert_eq!(isnull.eval_row(&b, 0).unwrap(), Value::Bool(false));
    }

    #[test]
    fn predicate_filters_null_as_false() {
        let b = batch();
        // tag = 'alpha': row0 TRUE, row1 NULL, row2 FALSE -> only row0
        let mask = Expr::col("tag")
            .eq(Expr::lit("alpha"))
            .eval_predicate(&b)
            .unwrap();
        assert_eq!(mask.iter_set().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn contains_like() {
        let b = batch();
        let e = Expr::Contains {
            expr: Box::new(Expr::col("tag")),
            needle: "lph".into(),
        };
        assert_eq!(e.eval_row(&b, 0).unwrap(), Value::Bool(true));
        assert_eq!(e.eval_row(&b, 1).unwrap(), Value::Null);
        assert_eq!(e.eval_row(&b, 2).unwrap(), Value::Bool(false));
    }

    #[test]
    fn type_errors_are_reported() {
        let b = batch();
        let e = Expr::col("tag").binary(BinOp::Add, Expr::lit(1i64));
        assert!(e.eval_row(&b, 0).is_err());
        let e = Expr::Not(Box::new(Expr::col("id")));
        assert!(e.eval_row(&b, 0).is_err());
        let e = Expr::col("ghost");
        assert!(e.eval_row(&b, 0).is_err());
        let e = Expr::col("id").eq(Expr::lit("one"));
        assert!(e.eval_row(&b, 0).is_err());
    }

    #[test]
    fn result_type_inference() {
        let b = batch();
        let schema = b.schema();
        assert_eq!(
            Expr::col("id").result_type(schema).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            Expr::col("id")
                .binary(BinOp::Add, Expr::col("price"))
                .result_type(schema)
                .unwrap(),
            DataType::Float64
        );
        assert_eq!(
            Expr::col("id")
                .eq(Expr::lit(1i64))
                .result_type(schema)
                .unwrap(),
            DataType::Bool
        );
    }

    fn stats(min: i64, max: i64) -> ColumnStats {
        let mut s = ColumnStats::default();
        s.observe(&Value::Int(min));
        s.observe(&Value::Int(max));
        s
    }

    #[test]
    fn pruning_uses_min_max() {
        let lookup = |name: &str| -> Option<ColumnStats> { (name == "id").then(|| stats(10, 20)) };
        assert!(Expr::col("id").eq(Expr::lit(15i64)).may_match(&lookup));
        assert!(!Expr::col("id").eq(Expr::lit(25i64)).may_match(&lookup));
        assert!(!Expr::col("id").gt(Expr::lit(20i64)).may_match(&lookup));
        assert!(Expr::col("id").gt_eq(Expr::lit(20i64)).may_match(&lookup));
        assert!(!Expr::col("id").lt(Expr::lit(10i64)).may_match(&lookup));
        // literal-on-left orientation: 25 < id means id > 25 -> prune
        assert!(!Expr::lit(25i64).lt(Expr::col("id")).may_match(&lookup));
        // unknown column: conservative
        assert!(Expr::col("other").eq(Expr::lit(1i64)).may_match(&lookup));
        // AND prunes if either side prunes; OR needs both
        let dead = Expr::col("id").eq(Expr::lit(99i64));
        let live = Expr::col("id").eq(Expr::lit(15i64));
        assert!(!dead.clone().and(live.clone()).may_match(&lookup));
        assert!(dead.clone().or(live).may_match(&lookup));
        assert!(!dead.clone().or(dead.clone()).may_match(&lookup));
        // A bare boolean column may be anything, but the other side of its
        // AND still prunes; under OR it keeps the chunk.
        let flag = Expr::col("flag");
        assert!(!flag.clone().and(dead.clone()).may_match(&lookup));
        assert!(!dead.clone().and(flag.clone()).may_match(&lookup));
        assert!(flag.or(dead).may_match(&lookup));
    }
}
