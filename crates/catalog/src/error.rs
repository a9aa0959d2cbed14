//! Error type for catalog and MVCC operations.

use std::fmt;

/// Result alias for catalog operations.
pub type CatalogResult<T> = Result<T, CatalogError>;

/// Errors raised by the MVCC store and the typed catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// First-committer-wins validation failed: a concurrent transaction
    /// committed a conflicting write after this transaction's snapshot.
    /// The paper's §4.1.2 step 4 failure — the user transaction is rolled
    /// back and may be retried.
    WriteWriteConflict {
        /// Human-readable description of the conflicting key.
        key: String,
    },
    /// Serializable-mode validation failed: a key this transaction read
    /// was modified by a concurrent committer (write-after-read).
    SerializationFailure {
        /// Human-readable description of the conflicting key.
        key: String,
    },
    /// The transaction was already committed or aborted.
    TxnNotActive {
        /// The transaction id.
        txn: u64,
    },
    /// A referenced catalog object does not exist.
    NotFound {
        /// Description of the missing object.
        what: String,
    },
    /// An object with this name already exists.
    AlreadyExists {
        /// Description of the duplicate object.
        what: String,
    },
    /// The durable commit-log write for this transaction's sequencer
    /// batch failed (or, in the engine, a pipelined manifest upload
    /// failed at the commit point). The transaction aborted after passing
    /// validation but before any timestamp was consumed; the failure is
    /// infrastructural, not a conflict, so it is not retried as one.
    CommitLogFailure {
        /// Human-readable description of the underlying failure.
        detail: String,
    },
    /// Recovery met a log record whose commit timestamp is not exactly one
    /// past the clock of the image folded so far: acknowledged history is
    /// missing below it. The dense-clock invariant forbids folding past a
    /// hole, so recovery fails rather than open a shorter catalog.
    ReplayGap {
        /// The timestamp the fold expected next (`clock + 1`).
        expected: u64,
        /// The timestamp the log record actually carried.
        found: u64,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::WriteWriteConflict { key } => {
                write!(f, "write-write conflict on {key}")
            }
            CatalogError::SerializationFailure { key } => {
                write!(f, "serialization failure on {key}")
            }
            CatalogError::TxnNotActive { txn } => write!(f, "transaction {txn} is not active"),
            CatalogError::NotFound { what } => write!(f, "not found: {what}"),
            CatalogError::AlreadyExists { what } => write!(f, "already exists: {what}"),
            CatalogError::CommitLogFailure { detail } => {
                write!(f, "commit log failure: {detail}")
            }
            CatalogError::ReplayGap { expected, found } => {
                write!(
                    f,
                    "replay gap: expected commit timestamp {expected}, log record carries {found}"
                )
            }
        }
    }
}

impl std::error::Error for CatalogError {}

impl CatalogError {
    /// Is this a conflict the caller should retry the transaction for?
    pub fn is_retryable_conflict(&self) -> bool {
        matches!(
            self,
            CatalogError::WriteWriteConflict { .. } | CatalogError::SerializationFailure { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability() {
        assert!(CatalogError::WriteWriteConflict { key: "t1".into() }.is_retryable_conflict());
        assert!(CatalogError::SerializationFailure { key: "t1".into() }.is_retryable_conflict());
        assert!(!CatalogError::NotFound { what: "t".into() }.is_retryable_conflict());
    }

    #[test]
    fn display() {
        let e = CatalogError::WriteWriteConflict {
            key: "WriteSets(5)".into(),
        };
        assert!(e.to_string().contains("WriteSets(5)"));
    }
}
