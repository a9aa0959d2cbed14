//! Validated blob paths.

use crate::{StoreError, StoreResult};
use std::borrow::Borrow;
use std::fmt;

/// A validated, `/`-separated, relative blob path.
///
/// Paths are the unit of naming in OneLake: every data file, delete vector,
/// transaction manifest and checkpoint is addressed by one. Validation
/// rejects empty paths, absolute paths, `.`/`..` segments and empty segments
/// so that [`LocalFsStore`](crate::LocalFsStore) can map them to the
/// filesystem without escaping its root.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlobPath(String);

impl BlobPath {
    /// Validate and wrap a raw path.
    pub fn new(raw: impl Into<String>) -> StoreResult<Self> {
        let raw = raw.into();
        if raw.is_empty() {
            return Err(StoreError::InvalidPath {
                raw,
                reason: "empty path",
            });
        }
        if raw.starts_with('/') {
            return Err(StoreError::InvalidPath {
                raw,
                reason: "absolute path",
            });
        }
        if raw.ends_with('/') {
            return Err(StoreError::InvalidPath {
                raw,
                reason: "trailing slash",
            });
        }
        for seg in raw.split('/') {
            if seg.is_empty() {
                return Err(StoreError::InvalidPath {
                    raw,
                    reason: "empty segment",
                });
            }
            if seg == "." || seg == ".." {
                return Err(StoreError::InvalidPath {
                    raw,
                    reason: "dot segment",
                });
            }
        }
        Ok(BlobPath(raw))
    }

    /// The raw path string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Build a child path: `self/segment`.
    pub fn child(&self, segment: &str) -> StoreResult<BlobPath> {
        BlobPath::new(format!("{}/{}", self.0, segment))
    }

    /// The final path segment (file name).
    pub fn file_name(&self) -> &str {
        self.0.rsplit('/').next().unwrap_or(&self.0)
    }

    /// Does this path start with `prefix`?
    pub fn starts_with(&self, prefix: &str) -> bool {
        self.0.starts_with(prefix)
    }
}

impl fmt::Display for BlobPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for BlobPath {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Equality, order and hash are the wrapped string's, so a map keyed by
/// paths can be searched, and range-scanned, by `&str`.
impl Borrow<str> for BlobPath {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_paths() {
        for p in ["a", "a/b", "db/tbl/_log/000.json", "x-y_z.parquet"] {
            assert!(BlobPath::new(p).is_ok(), "{p} should be valid");
        }
    }

    #[test]
    fn rejects_invalid_paths() {
        for p in ["", "/abs", "a//b", "a/", "./a", "a/../b", "..", "."] {
            assert!(BlobPath::new(p).is_err(), "{p} should be invalid");
        }
    }

    #[test]
    fn child_and_file_name() {
        let p = BlobPath::new("db/tbl").unwrap();
        let c = p.child("f.parquet").unwrap();
        assert_eq!(c.as_str(), "db/tbl/f.parquet");
        assert_eq!(c.file_name(), "f.parquet");
        assert_eq!(BlobPath::new("solo").unwrap().file_name(), "solo");
        assert!(p.child("..").is_err());
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = BlobPath::new("a/1").unwrap();
        let b = BlobPath::new("a/2").unwrap();
        assert!(a < b);
    }
}
