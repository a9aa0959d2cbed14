//! Error type for query execution.

use std::fmt;

/// Result alias for execution operations.
pub type ExecResult<T> = Result<T, ExecError>;

/// Errors raised during query execution on a BE node.
#[derive(Debug)]
pub enum ExecError {
    /// Expression or operator misuse (unknown column, type error, …).
    Plan {
        /// Description of the problem.
        detail: String,
    },
    /// Integer `+ - *` or `SUM` left the `Int64` range.
    Overflow,
    /// Columnar data error.
    Columnar(polaris_columnar::ColumnarError),
    /// Physical metadata error.
    Lst(polaris_lst::LstError),
    /// Object store error (retried by the DCP only when it is
    /// [`StoreError::Transient`](polaris_store::StoreError::Transient)).
    Store(polaris_store::StoreError),
}

impl ExecError {
    /// Shorthand for a planning/typing error.
    pub fn plan(detail: impl Into<String>) -> Self {
        ExecError::Plan {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Plan { detail } => write!(f, "plan error: {detail}"),
            ExecError::Overflow => f.write_str("arithmetic overflow"),
            ExecError::Columnar(e) => write!(f, "columnar error: {e}"),
            ExecError::Lst(e) => write!(f, "metadata error: {e}"),
            ExecError::Store(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Plan { .. } | ExecError::Overflow => None,
            ExecError::Columnar(e) => Some(e),
            ExecError::Lst(e) => Some(e),
            ExecError::Store(e) => Some(e),
        }
    }
}

impl From<polaris_columnar::ColumnarError> for ExecError {
    fn from(e: polaris_columnar::ColumnarError) -> Self {
        ExecError::Columnar(e)
    }
}

impl From<polaris_lst::LstError> for ExecError {
    fn from(e: polaris_lst::LstError) -> Self {
        ExecError::Lst(e)
    }
}

impl From<polaris_store::StoreError> for ExecError {
    fn from(e: polaris_store::StoreError) -> Self {
        ExecError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(ExecError::plan("bad").to_string().contains("bad"));
        let e: ExecError = polaris_columnar::ColumnarError::corrupt("x").into();
        assert!(matches!(e, ExecError::Columnar(_)));
        let e: ExecError = polaris_lst::LstError::malformed("y").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
