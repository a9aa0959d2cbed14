//! Error type for columnar encode/decode and batch construction.

use crate::codec::DecodeError;
use crate::DataType;
use std::fmt;

/// Result alias for columnar operations.
pub type ColumnarResult<T> = Result<T, ColumnarError>;

/// Errors raised while building, encoding or decoding columnar data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// A value's type did not match the column's declared type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Declared type.
        expected: DataType,
        /// Observed type description.
        found: String,
    },
    /// Columns of a batch (or file) had inconsistent lengths.
    LengthMismatch {
        /// Expected row count.
        expected: usize,
        /// Observed row count.
        found: usize,
    },
    /// A null appeared in a non-nullable column.
    UnexpectedNull {
        /// Column name.
        column: String,
    },
    /// The file bytes are not a valid columnar file.
    Corrupt {
        /// Description of the corruption.
        detail: String,
    },
    /// Referenced a column that does not exist in the schema.
    UnknownColumn {
        /// Column name.
        column: String,
    },
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::TypeMismatch {
                column,
                expected,
                found,
            } => {
                write!(
                    f,
                    "type mismatch in column {column:?}: expected {expected}, found {found}"
                )
            }
            ColumnarError::LengthMismatch { expected, found } => {
                write!(
                    f,
                    "column length mismatch: expected {expected} rows, found {found}"
                )
            }
            ColumnarError::UnexpectedNull { column } => {
                write!(f, "null value in non-nullable column {column:?}")
            }
            ColumnarError::Corrupt { detail } => write!(f, "corrupt columnar file: {detail}"),
            ColumnarError::UnknownColumn { column } => {
                write!(f, "unknown column {column:?}")
            }
        }
    }
}

impl std::error::Error for ColumnarError {}

impl From<DecodeError> for ColumnarError {
    fn from(e: DecodeError) -> Self {
        ColumnarError::corrupt(e.to_string())
    }
}

impl ColumnarError {
    /// Shorthand for [`ColumnarError::Corrupt`].
    pub fn corrupt(detail: impl Into<String>) -> Self {
        ColumnarError::Corrupt {
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_fields() {
        let e = ColumnarError::TypeMismatch {
            column: "qty".into(),
            expected: DataType::Int64,
            found: "Utf8".into(),
        };
        let s = e.to_string();
        assert!(s.contains("qty") && s.contains("Int64") && s.contains("Utf8"));
        assert!(ColumnarError::corrupt("bad magic")
            .to_string()
            .contains("bad magic"));
    }
}
