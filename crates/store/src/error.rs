//! Error type for object-store operations.

use crate::{BlobPath, BlockId};
use std::fmt;

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Errors surfaced by [`ObjectStore`](crate::ObjectStore) implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The blob does not exist (or has only uncommitted staged blocks).
    NotFound {
        /// Path that was requested.
        path: BlobPath,
    },
    /// A block ID in a commit list is neither staged nor committed.
    UnknownBlock {
        /// Blob being committed.
        path: BlobPath,
        /// The offending block ID.
        block: BlockId,
    },
    /// A byte range fell outside the blob.
    InvalidRange {
        /// Path that was requested.
        path: BlobPath,
        /// Requested range start.
        start: u64,
        /// Requested range end (exclusive).
        end: u64,
        /// Actual blob length.
        len: u64,
    },
    /// A path failed validation (empty, absolute, or contains `..`).
    InvalidPath {
        /// The rejected raw path.
        raw: String,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Transient fault injected by [`SimStore`](crate::SimStore) or a
    /// real I/O failure in [`LocalFsStore`](crate::LocalFsStore). Callers are
    /// expected to retry idempotent operations.
    Transient {
        /// Description of the fault.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound { path } => write!(f, "blob not found: {path}"),
            StoreError::UnknownBlock { path, block } => {
                write!(f, "unknown block {block} in commit list for {path}")
            }
            StoreError::InvalidRange {
                path,
                start,
                end,
                len,
            } => write!(f, "invalid range {start}..{end} for {path} of length {len}"),
            StoreError::InvalidPath { raw, reason } => {
                write!(f, "invalid blob path {raw:?}: {reason}")
            }
            StoreError::Transient { detail } => write!(f, "transient storage fault: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Transient {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let p = BlobPath::new("a/b").unwrap();
        let s = StoreError::NotFound { path: p.clone() }.to_string();
        assert!(s.contains("a/b"));
        let s = StoreError::UnknownBlock {
            path: p.clone(),
            block: BlockId::new("blk"),
        }
        .to_string();
        assert!(s.contains("blk"));
        let s = StoreError::InvalidRange {
            path: p,
            start: 3,
            end: 9,
            len: 5,
        }
        .to_string();
        assert!(s.contains("3..9"));
    }

    #[test]
    fn io_error_maps_to_transient() {
        let io = std::io::Error::other("disk on fire");
        let e: StoreError = io.into();
        assert!(matches!(e, StoreError::Transient { .. }));
        assert!(e.to_string().contains("disk on fire"));
    }
}
