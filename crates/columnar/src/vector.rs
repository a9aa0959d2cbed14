//! In-memory vectorized data: column vectors and record batches.

#[cfg(test)]
use crate::Field;
use crate::{Bitmap, ColumnarError, ColumnarResult, DataType, Schema, StrVec, Value};

/// A typed column of values with an optional validity mask.
///
/// `validity == None` means "all values valid" — the common case for
/// non-nullable columns, kept allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVector {
    /// 64-bit integers (also used for `Date32` widened to i64 at file
    /// boundaries — the file layer narrows/widens losslessly).
    Int64 {
        /// Values; entries at invalid positions are unspecified.
        values: Vec<i64>,
        /// Validity mask; `None` = all valid.
        validity: Option<Bitmap>,
    },
    /// 64-bit floats.
    Float64 {
        /// Values.
        values: Vec<f64>,
        /// Validity mask.
        validity: Option<Bitmap>,
    },
    /// UTF-8 strings.
    Utf8 {
        /// Values, back to back in one buffer.
        values: StrVec,
        /// Validity mask.
        validity: Option<Bitmap>,
    },
    /// Booleans.
    Bool {
        /// Values.
        values: Vec<bool>,
        /// Validity mask.
        validity: Option<Bitmap>,
    },
    /// Days since epoch.
    Date32 {
        /// Values.
        values: Vec<i32>,
        /// Validity mask.
        validity: Option<Bitmap>,
    },
}

/// A vector of `$col`'s variant holding `$body` (an expression over its
/// value vector `$values`) under `$validity`.
macro_rules! rebuild {
    ($col:expr, $validity:expr, |$values:ident| $body:expr) => {
        match $col {
            ColumnVector::Int64 {
                values: $values, ..
            } => ColumnVector::Int64 {
                values: $body,
                validity: $validity,
            },
            ColumnVector::Float64 {
                values: $values, ..
            } => ColumnVector::Float64 {
                values: $body,
                validity: $validity,
            },
            ColumnVector::Utf8 {
                values: $values, ..
            } => ColumnVector::Utf8 {
                values: $body,
                validity: $validity,
            },
            ColumnVector::Bool {
                values: $values, ..
            } => ColumnVector::Bool {
                values: $body,
                validity: $validity,
            },
            ColumnVector::Date32 {
                values: $values, ..
            } => ColumnVector::Date32 {
                values: $body,
                validity: $validity,
            },
        }
    };
}

/// The validity mask of `bits`, if it hides a row: like
/// [`ColumnVector::push`], a gather keeps no mask over all-valid rows.
fn hiding_mask(bits: impl Iterator<Item = bool>) -> Option<Bitmap> {
    let mask: Bitmap = bits.collect();
    (mask.count_set() < mask.len()).then_some(mask)
}

impl ColumnVector {
    /// An empty vector of the given type.
    pub fn empty(data_type: DataType) -> Self {
        Self::nulls(data_type, 0)
    }

    /// Build a vector from scalars; every scalar must be NULL or match
    /// `data_type`.
    pub fn from_values(data_type: DataType, values: &[Value]) -> ColumnarResult<Self> {
        let mut v = Self::empty(data_type);
        for value in values {
            v.push(value)?;
        }
        Ok(v)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int64 { values, .. } => values.len(),
            ColumnVector::Float64 { values, .. } => values.len(),
            ColumnVector::Utf8 { values, .. } => values.len(),
            ColumnVector::Bool { values, .. } => values.len(),
            ColumnVector::Date32 { values, .. } => values.len(),
        }
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The vector's logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnVector::Int64 { .. } => DataType::Int64,
            ColumnVector::Float64 { .. } => DataType::Float64,
            ColumnVector::Utf8 { .. } => DataType::Utf8,
            ColumnVector::Bool { .. } => DataType::Bool,
            ColumnVector::Date32 { .. } => DataType::Date32,
        }
    }

    /// The validity mask, if any row is NULL.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            ColumnVector::Int64 { validity, .. }
            | ColumnVector::Float64 { validity, .. }
            | ColumnVector::Utf8 { validity, .. }
            | ColumnVector::Bool { validity, .. }
            | ColumnVector::Date32 { validity, .. } => validity.as_ref(),
        }
    }

    /// Is row `i` valid (non-NULL)?
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len());
        self.validity().is_none_or(|v| v.get(i))
    }

    /// Number of NULLs.
    pub fn null_count(&self) -> usize {
        match self.validity() {
            None => 0,
            Some(v) => self.len() - v.count_set(),
        }
    }

    /// Scalar at row `i` (clones strings — use the typed accessors in hot
    /// paths).
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            ColumnVector::Int64 { values, .. } => Value::Int(values[i]),
            ColumnVector::Float64 { values, .. } => Value::Float(values[i]),
            ColumnVector::Utf8 { values, .. } => Value::Str(values[i].to_owned()),
            ColumnVector::Bool { values, .. } => Value::Bool(values[i]),
            ColumnVector::Date32 { values, .. } => Value::Date(values[i]),
        }
    }

    /// Append a scalar. NULLs materialize a validity mask lazily.
    pub fn push(&mut self, value: &Value) -> ColumnarResult<()> {
        let n = self.len();
        let mismatch = |found: &Value, dt: DataType| ColumnarError::TypeMismatch {
            column: String::new(),
            expected: dt,
            found: format!("{:?}", found.data_type()),
        };
        macro_rules! push_arm {
            ($values:expr, $validity:expr, $default:expr, $extract:expr, $dt:expr) => {{
                match value {
                    Value::Null => {
                        let mask = $validity.get_or_insert_with(|| Bitmap::all_set(n));
                        mask.push(false);
                        $values.push($default);
                    }
                    v => {
                        let payload = $extract(v).ok_or_else(|| mismatch(v, $dt))?;
                        if let Some(mask) = $validity.as_mut() {
                            mask.push(true);
                        }
                        $values.push(payload);
                    }
                }
            }};
        }
        match self {
            ColumnVector::Int64 { values, validity } => {
                push_arm!(
                    values,
                    validity,
                    0i64,
                    |v: &Value| v.as_int(),
                    DataType::Int64
                )
            }
            ColumnVector::Float64 { values, validity } => push_arm!(
                values,
                validity,
                0.0f64,
                |v: &Value| match v {
                    Value::Float(f) => Some(*f),
                    _ => None,
                },
                DataType::Float64
            ),
            ColumnVector::Utf8 { values, validity } => {
                push_arm!(values, validity, "", Value::as_str, DataType::Utf8)
            }
            ColumnVector::Bool { values, validity } => {
                push_arm!(
                    values,
                    validity,
                    false,
                    |v: &Value| v.as_bool(),
                    DataType::Bool
                )
            }
            ColumnVector::Date32 { values, validity } => {
                push_arm!(
                    values,
                    validity,
                    0i32,
                    |v: &Value| v.as_date(),
                    DataType::Date32
                )
            }
        }
        Ok(())
    }

    /// A vector of `len` NULLs of the given type.
    pub fn nulls(data_type: DataType, len: usize) -> Self {
        let validity = (len > 0).then(|| Bitmap::with_len(len));
        match data_type {
            DataType::Int64 => ColumnVector::Int64 {
                values: vec![0; len],
                validity,
            },
            DataType::Float64 => ColumnVector::Float64 {
                values: vec![0.0; len],
                validity,
            },
            DataType::Utf8 => ColumnVector::Utf8 {
                values: std::iter::repeat_n("", len).collect(),
                validity,
            },
            DataType::Bool => ColumnVector::Bool {
                values: vec![false; len],
                validity,
            },
            DataType::Date32 => ColumnVector::Date32 {
                values: vec![0; len],
                validity,
            },
        }
    }

    /// Gather the rows at `indices`, in that order (repeats allowed).
    pub fn take(&self, indices: &[usize]) -> ColumnVector {
        let validity = self
            .validity()
            .and_then(|mask| hiding_mask(indices.iter().map(|&i| mask.get(i))));
        rebuild!(self, validity, |values| gathered(
            indices.iter().map(|&i| &values[i])
        ))
    }

    /// Keep only rows where `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> ColumnVector {
        self.take(&selected_rows(mask, self.len()))
    }

    /// The first `n` rows (all of them when `n >= len`).
    pub fn head(&self, n: usize) -> ColumnVector {
        let n = n.min(self.len());
        let validity = self
            .validity()
            .and_then(|mask| hiding_mask((0..n).map(|i| mask.get(i))));
        rebuild!(self, validity, |values| gathered(
            (0..n).map(|i| &values[i])
        ))
    }

    /// Concatenate another vector of the same type onto this one.
    pub fn append(&mut self, other: &ColumnVector) -> ColumnarResult<()> {
        let len = self.len();
        macro_rules! extend {
            ($values:expr, $validity:expr, $other_values:expr) => {{
                $values.extend($other_values.iter());
                // The mask materializes with the first NULL, as in `push`.
                let other_mask = other.validity().filter(|_| other.null_count() > 0);
                if $validity.is_some() || other_mask.is_some() {
                    let mask = $validity.get_or_insert_with(|| Bitmap::all_set(len));
                    for i in 0..other.len() {
                        mask.push(other_mask.is_none_or(|m| m.get(i)));
                    }
                }
            }};
        }
        match (self, other) {
            (
                ColumnVector::Int64 { values, validity },
                ColumnVector::Int64 { values: more, .. },
            ) => extend!(values, validity, more),
            (
                ColumnVector::Float64 { values, validity },
                ColumnVector::Float64 { values: more, .. },
            ) => extend!(values, validity, more),
            (ColumnVector::Utf8 { values, validity }, ColumnVector::Utf8 { values: more, .. }) => {
                extend!(values, validity, more)
            }
            (ColumnVector::Bool { values, validity }, ColumnVector::Bool { values: more, .. }) => {
                extend!(values, validity, more)
            }
            (
                ColumnVector::Date32 { values, validity },
                ColumnVector::Date32 { values: more, .. },
            ) => extend!(values, validity, more),
            (this, other) => {
                return Err(ColumnarError::TypeMismatch {
                    column: String::new(),
                    expected: this.data_type(),
                    found: other.data_type().to_string(),
                })
            }
        }
        Ok(())
    }
}

/// A value vector of the borrowed `rows`: a `Vec` of copies, or a
/// [`StrVec`] of the strings.
fn gathered<V: Default + Extend<R>, R>(rows: impl Iterator<Item = R>) -> V {
    let mut out = V::default();
    out.extend(rows);
    out
}

/// Indices of the set bits of `mask` below `len`, ascending.
fn selected_rows(mask: &Bitmap, len: usize) -> Vec<usize> {
    mask.iter_set().take_while(|&i| i < len).collect()
}

/// A horizontal slice of a table: a schema plus one column vector per field,
/// all the same length. The unit of data flow between operators.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    schema: Schema,
    columns: Vec<ColumnVector>,
    rows: usize,
}

impl RecordBatch {
    /// Build a batch, validating lengths and types against the schema.
    pub fn new(schema: Schema, columns: Vec<ColumnVector>) -> ColumnarResult<Self> {
        if schema.len() != columns.len() {
            return Err(ColumnarError::LengthMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, ColumnVector::len);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.len() != rows {
                return Err(ColumnarError::LengthMismatch {
                    expected: rows,
                    found: col.len(),
                });
            }
            if col.data_type() != field.data_type {
                return Err(ColumnarError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.data_type,
                    found: col.data_type().to_string(),
                });
            }
            if !field.nullable && col.null_count() > 0 {
                return Err(ColumnarError::UnexpectedNull {
                    column: field.name.clone(),
                });
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            rows,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnVector::empty(f.data_type))
            .collect();
        RecordBatch {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Build a batch from row-major scalars (convenience for tests/SQL
    /// INSERT ... VALUES).
    pub fn from_rows(schema: Schema, rows: &[Vec<Value>]) -> ColumnarResult<Self> {
        let mut columns: Vec<ColumnVector> = schema
            .fields()
            .iter()
            .map(|f| ColumnVector::empty(f.data_type))
            .collect();
        for row in rows {
            if row.len() != schema.len() {
                return Err(ColumnarError::LengthMismatch {
                    expected: schema.len(),
                    found: row.len(),
                });
            }
            for (col, value) in columns.iter_mut().zip(row) {
                col.push(value).map_err(|e| match e {
                    ColumnarError::TypeMismatch {
                        expected, found, ..
                    } => ColumnarError::TypeMismatch {
                        column: String::new(),
                        expected,
                        found,
                    },
                    other => other,
                })?;
            }
        }
        RecordBatch::new(schema, columns)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column by index.
    pub fn column(&self, i: usize) -> &ColumnVector {
        &self.columns[i]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> ColumnarResult<&ColumnVector> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All columns.
    pub fn columns(&self) -> &[ColumnVector] {
        &self.columns
    }

    /// Row `i` as scalars.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Keep only rows where `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> RecordBatch {
        self.take(&selected_rows(mask, self.rows))
    }

    /// The first `n` rows (the whole batch when `n >= num_rows`).
    pub fn head(&self, n: usize) -> RecordBatch {
        RecordBatch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.head(n)).collect(),
            rows: n.min(self.rows),
        }
    }

    /// Gather the rows at `indices`, in that order.
    pub fn take(&self, indices: &[usize]) -> RecordBatch {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        RecordBatch {
            schema: self.schema.clone(),
            columns,
            rows: indices.len(),
        }
    }

    /// Project onto named columns.
    pub fn project(&self, names: &[&str]) -> ColumnarResult<RecordBatch> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| self.column_by_name(n).cloned())
            .collect::<ColumnarResult<Vec<_>>>()?;
        Ok(RecordBatch {
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// Vertically concatenate batches with identical schemas.
    pub fn concat(batches: &[RecordBatch]) -> ColumnarResult<RecordBatch> {
        let Some(first) = batches.first() else {
            return Err(ColumnarError::LengthMismatch {
                expected: 1,
                found: 0,
            });
        };
        let mut columns: Vec<ColumnVector> = first
            .schema
            .fields()
            .iter()
            .map(|f| ColumnVector::empty(f.data_type))
            .collect();
        let mut rows = 0;
        for batch in batches {
            if batch.schema != first.schema {
                return Err(ColumnarError::corrupt("concat with mismatched schemas"));
            }
            for (acc, col) in columns.iter_mut().zip(&batch.columns) {
                acc.append(col)?;
            }
            rows += batch.rows;
        }
        Ok(RecordBatch {
            schema: first.schema.clone(),
            columns,
            rows,
        })
    }
}

/// Convenience constructor for a single-column schema used across tests.
#[cfg(test)]
pub(crate) fn single_column_schema(name: &str, data_type: DataType) -> Schema {
    Schema::new(vec![Field::new(name, data_type)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("name", DataType::Utf8),
            Field::new("active", DataType::Bool),
        ])
    }

    fn test_batch() -> RecordBatch {
        RecordBatch::from_rows(
            test_schema(),
            &[
                vec![Value::Int(1), Value::Str("a".into()), Value::Bool(true)],
                vec![Value::Int(2), Value::Null, Value::Bool(false)],
                vec![Value::Int(3), Value::Str("c".into()), Value::Bool(true)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_access() {
        let b = test_batch();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_columns(), 3);
        assert_eq!(b.column(0).value(1), Value::Int(2));
        assert_eq!(b.column(1).value(1), Value::Null);
        assert_eq!(b.column(1).null_count(), 1);
        assert_eq!(b.column(0).null_count(), 0);
        assert_eq!(
            b.row(2),
            vec![Value::Int(3), Value::Str("c".into()), Value::Bool(true)]
        );
    }

    #[test]
    fn null_in_non_nullable_rejected() {
        let err = RecordBatch::from_rows(
            test_schema(),
            &[vec![Value::Null, Value::Null, Value::Bool(true)]],
        )
        .unwrap_err();
        assert!(matches!(err, ColumnarError::UnexpectedNull { .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let err = RecordBatch::from_rows(
            test_schema(),
            &[vec![Value::Str("x".into()), Value::Null, Value::Bool(true)]],
        )
        .unwrap_err();
        assert!(matches!(err, ColumnarError::TypeMismatch { .. }));
    }

    #[test]
    fn ragged_row_rejected() {
        let err = RecordBatch::from_rows(test_schema(), &[vec![Value::Int(1)]]).unwrap_err();
        assert!(matches!(err, ColumnarError::LengthMismatch { .. }));
    }

    #[test]
    fn filter_take_project() {
        let b = test_batch();
        let mut mask = Bitmap::with_len(3);
        mask.set(0);
        mask.set(2);
        let f = b.filter(&mask);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.column(0).value(1), Value::Int(3));
        let t = b.take(&[2, 0]);
        assert_eq!(t.column(0).value(0), Value::Int(3));
        let p = b.project(&["active", "id"]).unwrap();
        assert_eq!(p.schema().fields()[0].name, "active");
        assert_eq!(p.column(1).value(0), Value::Int(1));
    }

    #[test]
    fn filter_preserves_nulls() {
        let b = test_batch();
        let mut mask = Bitmap::with_len(3);
        mask.set(1);
        let f = b.filter(&mask);
        assert_eq!(f.column(1).value(0), Value::Null);
        assert_eq!(f.column(1).null_count(), 1);
    }

    #[test]
    fn concat_batches() {
        let b = test_batch();
        let c = RecordBatch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(c.num_rows(), 6);
        assert_eq!(c.column(1).null_count(), 2);
        assert!(RecordBatch::concat(&[]).is_err());
        let other = RecordBatch::empty(single_column_schema("x", DataType::Int64));
        assert!(RecordBatch::concat(&[b, other]).is_err());
    }

    #[test]
    fn date_vector() {
        let mut v = ColumnVector::empty(DataType::Date32);
        v.push(&Value::Date(100)).unwrap();
        v.push(&Value::Null).unwrap();
        assert_eq!(v.value(0), Value::Date(100));
        assert_eq!(v.value(1), Value::Null);
        assert_eq!(v.null_count(), 1);
    }

    #[test]
    fn append_type_checks() {
        let mut a = ColumnVector::empty(DataType::Int64);
        let b = ColumnVector::empty(DataType::Utf8);
        assert!(a.append(&b).is_err());
    }
}
