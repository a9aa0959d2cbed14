//! # polaris-store
//!
//! Object-store substrate for Polaris, standing in for ADLS / OneLake.
//!
//! The paper's transaction-manifest write protocol (§3.2.2) relies on the
//! Azure *Block Blob* API: back-end nodes independently **stage** blocks
//! against a blob (invisible to readers), return the block IDs to the DCP,
//! and the SQL FE makes the content visible atomically with a single
//! **commit block list** call. Blocks staged but omitted from the committed
//! list are discarded by storage — which is exactly how Polaris makes task
//! retries and aborted transactions free: their output is simply never
//! referenced.
//!
//! This crate reproduces those semantics faithfully:
//!
//! * [`ObjectStore`] — the storage trait (blob CRUD + block-blob protocol).
//! * [`MemoryStore`] — in-memory backend, the default for tests and benches.
//! * [`LocalFsStore`] — on-disk backend with identical semantics.
//! * [`CachingStore`] — read-through blob cache (the BE data cache of
//!   §3.3 — coherent for free thanks to file immutability).
//! * [`StatsStore`] — transparent wrapper counting operations and bytes.
//! * [`SimStore`] — one simulated store: a [`LatencyModel`], seeded transient
//!   faults, death at an exact operation and a tap that sees each [`Request`].
//!
//! Every blob carries a creation [`Stamp`] assigned by its writer. The paper
//! uses this stamp for garbage collection (§5.3): a file whose stamp is below
//! the minimum begin-timestamp of every active transaction and that is not
//! referenced by any manifest is guaranteed to belong to an aborted
//! transaction and can be deleted.

mod block;
mod cache;
mod error;
mod local;
mod memory;
mod path;
mod sim;
mod stats;

pub use block::BlockId;
pub use cache::CachingStore;
pub use error::{StoreError, StoreResult};
pub use local::LocalFsStore;
pub use memory::MemoryStore;
pub use path::BlobPath;
pub use sim::{LatencyModel, LatencyStore, Request, SimStore};
pub use stats::{OpCounts, StatsStore};

/// Re-exported so callers of [`ObjectStore::put`] need no direct `bytes`
/// dependency.
pub use bytes::Bytes;
use std::ops::Range;
use std::sync::Arc;

/// Logical creation timestamp stamped onto every blob by the transaction
/// (or system task) that created it.
///
/// Garbage collection (§5.3) compares this stamp against the minimum begin
/// timestamp of all active transactions to decide whether an unreferenced
/// file is definitely orphaned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Stamp(pub u64);

impl Stamp {
    /// Stamp used by system-internal writes that are not tied to a
    /// transaction (e.g. checkpoints written by the STO).
    pub const SYSTEM: Stamp = Stamp(0);
}

/// Metadata describing a committed blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobMeta {
    /// Full path of the blob.
    pub path: BlobPath,
    /// Committed size in bytes.
    pub size: u64,
    /// Creation stamp supplied by the writer.
    pub stamp: Stamp,
}

/// Storage abstraction over ADLS/OneLake used by every Polaris component.
///
/// Semantics mirror Azure Block Blobs:
///
/// * [`put`](ObjectStore::put) atomically creates/replaces a blob.
/// * [`stage_block`](ObjectStore::stage_block) uploads an *uncommitted* block
///   that is invisible to readers.
/// * [`commit_block_list`](ObjectStore::commit_block_list) atomically makes
///   the blob's content the concatenation of the listed blocks. Previously
///   committed blocks may be re-listed (Polaris appends statement blocks to a
///   transaction manifest this way); staged blocks absent from the list are
///   discarded.
pub trait ObjectStore: Send + Sync {
    /// Atomically create or replace a blob with `data`.
    fn put(&self, path: &BlobPath, data: Bytes, stamp: Stamp) -> StoreResult<()>;

    /// Read a committed blob in full.
    fn get(&self, path: &BlobPath) -> StoreResult<Bytes>;

    /// Read a byte range of a committed blob.
    fn get_range(&self, path: &BlobPath, range: Range<u64>) -> StoreResult<Bytes> {
        let data = self.get(path)?;
        let len = data.len() as u64;
        if range.start > range.end || range.end > len {
            return Err(StoreError::InvalidRange {
                path: path.clone(),
                start: range.start,
                end: range.end,
                len,
            });
        }
        Ok(data.slice(range.start as usize..range.end as usize))
    }

    /// Metadata for a committed blob.
    fn head(&self, path: &BlobPath) -> StoreResult<BlobMeta>;

    /// Does a committed blob exist at `path`?
    fn exists(&self, path: &BlobPath) -> StoreResult<bool> {
        match self.head(path) {
            Ok(_) => Ok(true),
            Err(StoreError::NotFound { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Delete a blob (committed content and any staged blocks).
    ///
    /// Deleting a non-existent blob is an error, mirroring ADLS.
    fn delete(&self, path: &BlobPath) -> StoreResult<()>;

    /// List committed blobs whose path starts with `prefix`, in
    /// lexicographic path order.
    fn list(&self, prefix: &str) -> StoreResult<Vec<BlobMeta>>;

    /// Stage an uncommitted block against `path`.
    ///
    /// The blob need not exist yet. Staged blocks are invisible until
    /// committed; re-staging an existing block ID replaces its payload
    /// (Azure semantics — the last staged payload wins).
    fn stage_block(
        &self,
        path: &BlobPath,
        block: BlockId,
        data: Bytes,
        stamp: Stamp,
    ) -> StoreResult<()>;

    /// Atomically set the blob's content to the concatenation of `blocks`.
    ///
    /// Every listed ID must be either currently staged or already part of the
    /// committed list. Staged blocks not listed are discarded. An empty list
    /// commits an empty blob.
    fn commit_block_list(
        &self,
        path: &BlobPath,
        blocks: &[BlockId],
        stamp: Stamp,
    ) -> StoreResult<()>;

    /// IDs of the currently committed block list (empty if the blob was
    /// written via [`put`](ObjectStore::put)).
    fn committed_blocks(&self, path: &BlobPath) -> StoreResult<Vec<BlockId>>;
}

/// Shared, dynamically dispatched handle to an object store.
pub type StoreRef = Arc<dyn ObjectStore>;

#[cfg(test)]
pub(crate) mod trait_tests {
    use super::*;

    /// Conformance suite run against every backend.
    pub(crate) fn conformance(store: &dyn ObjectStore) {
        let p = BlobPath::new("tbl/data/file1.bin").unwrap();
        // put / get / head
        store
            .put(&p, Bytes::from_static(b"hello"), Stamp(7))
            .unwrap();
        assert_eq!(store.get(&p).unwrap(), Bytes::from_static(b"hello"));
        let meta = store.head(&p).unwrap();
        assert_eq!(meta.size, 5);
        assert_eq!(meta.stamp, Stamp(7));
        // range
        assert_eq!(
            store.get_range(&p, 1..4).unwrap(),
            Bytes::from_static(b"ell")
        );
        assert!(matches!(
            store.get_range(&p, 2..9),
            Err(StoreError::InvalidRange { .. })
        ));
        // overwrite
        store.put(&p, Bytes::from_static(b"x"), Stamp(8)).unwrap();
        assert_eq!(store.head(&p).unwrap().size, 1);

        // block-blob protocol
        let m = BlobPath::new("tbl/_log/x1.json").unwrap();
        let b1 = BlockId::new("b1");
        let b2 = BlockId::new("b2");
        let b3 = BlockId::new("b3");
        store
            .stage_block(&m, b1.clone(), Bytes::from_static(b"AA"), Stamp(9))
            .unwrap();
        store
            .stage_block(&m, b2.clone(), Bytes::from_static(b"BB"), Stamp(9))
            .unwrap();
        store
            .stage_block(&m, b3.clone(), Bytes::from_static(b"CC"), Stamp(9))
            .unwrap();
        // staged but uncommitted => invisible
        assert!(!store.exists(&m).unwrap());
        assert!(matches!(store.get(&m), Err(StoreError::NotFound { .. })));
        // commit a subset, out of staging order
        store
            .commit_block_list(&m, &[b2.clone(), b1.clone()], Stamp(9))
            .unwrap();
        assert_eq!(store.get(&m).unwrap(), Bytes::from_static(b"BBAA"));
        assert_eq!(
            store.committed_blocks(&m).unwrap(),
            vec![b2.clone(), b1.clone()]
        );
        // b3 was discarded: committing it now must fail
        assert!(matches!(
            store.commit_block_list(&m, std::slice::from_ref(&b3), Stamp(9)),
            Err(StoreError::UnknownBlock { .. })
        ));
        // append pattern: stage a new block, re-commit superset
        let b4 = BlockId::new("b4");
        store
            .stage_block(&m, b4.clone(), Bytes::from_static(b"DD"), Stamp(9))
            .unwrap();
        store
            .commit_block_list(&m, &[b2.clone(), b1.clone(), b4.clone()], Stamp(9))
            .unwrap();
        assert_eq!(store.get(&m).unwrap(), Bytes::from_static(b"BBAADD"));
        // committed blocks can be re-ordered / dropped by a later commit
        store
            .commit_block_list(&m, std::slice::from_ref(&b4), Stamp(9))
            .unwrap();
        assert_eq!(store.get(&m).unwrap(), Bytes::from_static(b"DD"));

        // list
        let listed = store.list("tbl/").unwrap();
        assert_eq!(listed.len(), 2);
        assert!(listed.windows(2).all(|w| w[0].path < w[1].path));
        assert_eq!(store.list("tbl/_log/").unwrap().len(), 1);
        assert!(store.list("nope/").unwrap().is_empty());

        // delete
        store.delete(&p).unwrap();
        assert!(!store.exists(&p).unwrap());
        assert!(matches!(store.delete(&p), Err(StoreError::NotFound { .. })));

        // empty commit list => empty blob
        let e = BlobPath::new("tbl/_log/empty.json").unwrap();
        store.commit_block_list(&e, &[], Stamp(1)).unwrap();
        assert_eq!(store.get(&e).unwrap().len(), 0);
    }
}
