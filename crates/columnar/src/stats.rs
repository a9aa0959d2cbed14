//! Per-column statistics used for scan pruning and compaction triggers.

use crate::{ColumnVector, Value};
use std::cmp::Ordering;

/// Min/max/null statistics for one column chunk.
///
/// `[min, max]` covers every value a comparison can order: NULLs and NaNs
/// are counted in `row_count` but never become a bound (a NaN bound would
/// compare as unknown against everything and prune the chunk's numbers).
/// Scans prune row groups whose `[min, max]` interval cannot satisfy a
/// predicate; the STO's compaction trigger (§5.1) aggregates row and delete
/// counts gathered alongside these stats during SELECTs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Minimum non-null value, if any non-null value exists.
    pub min: Option<Value>,
    /// Maximum non-null value, if any non-null value exists.
    pub max: Option<Value>,
    /// Number of NULLs.
    pub null_count: u64,
    /// Total number of rows covered.
    pub row_count: u64,
}

impl ColumnStats {
    /// Compute stats over a vector: one typed min/max pass per variant, the
    /// same fold as [`ColumnStats::observe`] row by row (which stays as the
    /// reference the tests compare against) without a [`Value`] per row.
    pub fn from_vector(v: &ColumnVector) -> Self {
        let rows = || (0..v.len()).filter(|&i| v.is_valid(i));
        let (min, max) = match v {
            ColumnVector::Int64 { values, .. } => bounds(rows().map(|i| values[i]), Value::Int),
            ColumnVector::Float64 { values, .. } => bounds(
                rows().map(|i| values[i]).filter(|f| !f.is_nan()),
                Value::Float,
            ),
            ColumnVector::Utf8 { values, .. } => {
                bounds(rows().map(|i| &values[i]), |s| Value::Str(s.to_owned()))
            }
            ColumnVector::Bool { values, .. } => bounds(rows().map(|i| values[i]), Value::Bool),
            ColumnVector::Date32 { values, .. } => bounds(rows().map(|i| values[i]), Value::Date),
        };
        ColumnStats {
            min,
            max,
            null_count: v.null_count() as u64,
            row_count: v.len() as u64,
        }
    }

    /// Fold one value into the stats.
    pub fn observe(&mut self, value: &Value) {
        self.row_count += 1;
        if value.is_null() {
            self.null_count += 1;
        } else {
            self.widen(value);
        }
    }

    /// Widen `[min, max]` to cover `value`; a NaN never becomes a bound.
    fn widen(&mut self, value: &Value) {
        if matches!(value, Value::Float(f) if f.is_nan()) {
            return;
        }
        match &self.min {
            None => self.min = Some(value.clone()),
            Some(m) => {
                if value.sql_cmp(m) == Some(Ordering::Less) {
                    self.min = Some(value.clone());
                }
            }
        }
        match &self.max {
            None => self.max = Some(value.clone()),
            Some(m) => {
                if value.sql_cmp(m) == Some(Ordering::Greater) {
                    self.max = Some(value.clone());
                }
            }
        }
    }

    /// Merge stats from another chunk of the same column. The counts
    /// saturate: a footer's are read from the file, not trusted.
    pub fn merge(&mut self, other: &ColumnStats) {
        self.null_count = self.null_count.saturating_add(other.null_count);
        self.row_count = self.row_count.saturating_add(other.row_count);
        for v in [&other.min, &other.max].into_iter().flatten() {
            self.widen(v);
        }
    }

    /// Could a value equal to `v` exist in this chunk?
    pub fn may_contain(&self, v: &Value) -> bool {
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => {
                min.sql_cmp(v) != Some(Ordering::Greater) && max.sql_cmp(v) != Some(Ordering::Less)
            }
            // No non-null values at all: only NULL predicates can match,
            // and those are handled separately.
            _ => false,
        }
    }

    /// Could a value strictly greater than `v` exist?
    pub fn may_contain_gt(&self, v: &Value) -> bool {
        self.max
            .as_ref()
            .is_some_and(|max| max.sql_cmp(v) == Some(Ordering::Greater))
    }

    /// Could a value strictly less than `v` exist?
    pub fn may_contain_lt(&self, v: &Value) -> bool {
        self.min
            .as_ref()
            .is_some_and(|min| min.sql_cmp(v) == Some(Ordering::Less))
    }
}

/// Smallest and largest of `rows`, the first seen winning among equals
/// (`-0.0` and `0.0` are equal), as scalars.
fn bounds<T: PartialOrd + Copy>(
    mut rows: impl Iterator<Item = T>,
    scalar: impl Fn(T) -> Value,
) -> (Option<Value>, Option<Value>) {
    let Some(first) = rows.next() else {
        return (None, None);
    };
    let (mut min, mut max) = (first, first);
    for v in rows {
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
    }
    (Some(scalar(min)), Some(scalar(max)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;
    use proptest::prelude::*;

    /// The reference: [`ColumnStats::observe`] folded over every row.
    fn folded(v: &ColumnVector) -> ColumnStats {
        let mut stats = ColumnStats::default();
        for i in 0..v.len() {
            stats.observe(&v.value(i));
        }
        stats
    }

    /// `Value`s of one type from generated `(kind, payload)` pairs: NULLs,
    /// and for floats NaN, both zeros and infinities, at any position.
    fn column(data_type: DataType, cells: &[(u8, i64)]) -> ColumnVector {
        let values: Vec<Value> = cells
            .iter()
            .map(|&(kind, n)| match (kind % 4, data_type) {
                (0, _) => Value::Null,
                (_, DataType::Int64) => Value::Int(n),
                (1, DataType::Float64) => Value::Float(f64::NAN),
                (2, DataType::Float64) => Value::Float([0.0, -0.0, f64::INFINITY][n as usize % 3]),
                (_, DataType::Float64) => Value::Float(n as f64 / 8.0),
                (_, DataType::Utf8) => Value::Str(format!("s{}", n % 50)),
                (_, DataType::Bool) => Value::Bool(n % 2 == 0),
                (_, DataType::Date32) => Value::Date(n as i32),
            })
            .collect();
        ColumnVector::from_values(data_type, &values).unwrap()
    }

    proptest! {
        #[test]
        fn typed_pass_equals_the_observe_fold(
            cells in proptest::collection::vec((any::<u8>(), -1000i64..1000), 0..64),
            nan_first in any::<bool>(),
            nan_last in any::<bool>(),
        ) {
            for data_type in [
                DataType::Int64,
                DataType::Float64,
                DataType::Utf8,
                DataType::Bool,
                DataType::Date32,
            ] {
                let mut cells = cells.clone();
                if nan_first {
                    cells.insert(0, (1, 0));
                }
                if nan_last {
                    cells.push((1, 0));
                }
                let v = column(data_type, &cells);
                let (typed, reference) = (ColumnStats::from_vector(&v), folded(&v));
                // `==` on floats would call 0.0 and -0.0 the same bound.
                prop_assert_eq!(format!("{typed:?}"), format!("{reference:?}"));
            }
        }
    }

    #[test]
    fn stats_over_vector() {
        let v = ColumnVector::from_values(
            DataType::Int64,
            &[Value::Int(5), Value::Null, Value::Int(-2), Value::Int(9)],
        )
        .unwrap();
        let s = ColumnStats::from_vector(&v);
        assert_eq!(s.min, Some(Value::Int(-2)));
        assert_eq!(s.max, Some(Value::Int(9)));
        assert_eq!(s.null_count, 1);
        assert_eq!(s.row_count, 4);
    }

    #[test]
    fn all_null_chunk() {
        let v = ColumnVector::from_values(DataType::Int64, &[Value::Null, Value::Null]).unwrap();
        let s = ColumnStats::from_vector(&v);
        assert_eq!(s.min, None);
        assert!(!s.may_contain(&Value::Int(0)));
        assert!(!s.may_contain_gt(&Value::Int(0)));
        assert!(!s.may_contain_lt(&Value::Int(0)));
    }

    #[test]
    fn pruning_bounds() {
        let mut s = ColumnStats::default();
        s.observe(&Value::Int(10));
        s.observe(&Value::Int(20));
        assert!(s.may_contain(&Value::Int(10)));
        assert!(s.may_contain(&Value::Int(15)));
        assert!(!s.may_contain(&Value::Int(9)));
        assert!(!s.may_contain(&Value::Int(21)));
        assert!(s.may_contain_gt(&Value::Int(19)));
        assert!(!s.may_contain_gt(&Value::Int(20)));
        assert!(s.may_contain_lt(&Value::Int(11)));
        assert!(!s.may_contain_lt(&Value::Int(10)));
    }

    #[test]
    fn nan_is_never_a_bound() {
        let v = |values| ColumnVector::Float64 {
            values,
            validity: None,
        };
        let s = ColumnStats::from_vector(&v(vec![f64::NAN, 5.0, f64::NAN, 1.0]));
        assert_eq!(s.min, Some(Value::Float(1.0)));
        assert_eq!(s.max, Some(Value::Float(5.0)));
        assert_eq!((s.null_count, s.row_count), (0, 4));
        assert!(s.may_contain_gt(&Value::Float(2.0)));
        assert!(s.may_contain_lt(&Value::Float(2.0)));
        let mut all_nan = ColumnStats::from_vector(&v(vec![f64::NAN; 2]));
        assert_eq!((&all_nan.min, &all_nan.max), (&None, &None));
        all_nan.merge(&s);
        assert_eq!(all_nan.max, Some(Value::Float(5.0)));
        assert_eq!(all_nan.row_count, 6);
    }

    #[test]
    fn merge_combines_ranges_and_counts() {
        let mut a = ColumnStats::default();
        a.observe(&Value::Int(1));
        a.observe(&Value::Null);
        let mut b = ColumnStats::default();
        b.observe(&Value::Int(100));
        a.merge(&b);
        assert_eq!(a.min, Some(Value::Int(1)));
        assert_eq!(a.max, Some(Value::Int(100)));
        assert_eq!(a.null_count, 1);
        assert_eq!(a.row_count, 3);
    }

    /// A footer's counts are read from the file: merging two that sum past
    /// `u64::MAX` saturates instead of overflowing.
    #[test]
    fn merge_saturates_counts() {
        let huge = ColumnStats {
            null_count: u64::MAX,
            row_count: u64::MAX,
            ..Default::default()
        };
        let mut acc = huge.clone();
        acc.merge(&huge);
        assert_eq!((acc.null_count, acc.row_count), (u64::MAX, u64::MAX));
    }

    #[test]
    fn string_stats() {
        let mut s = ColumnStats::default();
        s.observe(&Value::Str("beta".into()));
        s.observe(&Value::Str("alpha".into()));
        assert_eq!(s.min, Some(Value::Str("alpha".into())));
        assert!(s.may_contain(&Value::Str("azure".into())));
        assert!(!s.may_contain(&Value::Str("zeta".into())));
    }
}
