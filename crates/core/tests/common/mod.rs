//! A store wrapper that shows every request to a closure before passing it
//! on — to count requests by path, or to hold one at a chosen point.

// Shared between test crates, each using its own part.
#![allow(dead_code)]

use polaris_store::{
    BlobMeta, BlobPath, BlockId, Bytes, MemoryStore, ObjectStore, Stamp, StoreResult,
};
use std::ops::Range;
use std::sync::Arc;

/// One request: the operation's name, the path (or, for `list`, the
/// prefix) it names, and the bytes it carries to the store.
pub struct Request<'a> {
    pub op: &'static str,
    pub path: &'a str,
    pub bytes: u64,
}

pub struct TapStore<F> {
    inner: Arc<MemoryStore>,
    tap: F,
}

impl<F: Fn(Request<'_>) + Send + Sync> TapStore<F> {
    pub fn new(inner: Arc<MemoryStore>, tap: F) -> Self {
        TapStore { inner, tap }
    }

    fn see(&self, op: &'static str, path: &str, bytes: usize) {
        (self.tap)(Request {
            op,
            path,
            bytes: bytes as u64,
        });
    }
}

impl<F: Fn(Request<'_>) + Send + Sync> ObjectStore for TapStore<F> {
    fn put(&self, path: &BlobPath, data: Bytes, stamp: Stamp) -> StoreResult<()> {
        self.see("put", path.as_str(), data.len());
        self.inner.put(path, data, stamp)
    }

    fn get(&self, path: &BlobPath) -> StoreResult<Bytes> {
        self.see("get", path.as_str(), 0);
        self.inner.get(path)
    }

    fn get_range(&self, path: &BlobPath, range: Range<u64>) -> StoreResult<Bytes> {
        self.see("get_range", path.as_str(), 0);
        self.inner.get_range(path, range)
    }

    fn head(&self, path: &BlobPath) -> StoreResult<BlobMeta> {
        self.see("head", path.as_str(), 0);
        self.inner.head(path)
    }

    fn delete(&self, path: &BlobPath) -> StoreResult<()> {
        self.see("delete", path.as_str(), 0);
        self.inner.delete(path)
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<BlobMeta>> {
        self.see("list", prefix, 0);
        self.inner.list(prefix)
    }

    fn stage_block(
        &self,
        path: &BlobPath,
        block: BlockId,
        data: Bytes,
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.see("stage_block", path.as_str(), data.len());
        self.inner.stage_block(path, block, data, stamp)
    }

    fn commit_block_list(
        &self,
        path: &BlobPath,
        blocks: &[BlockId],
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.see("commit_block_list", path.as_str(), 0);
        self.inner.commit_block_list(path, blocks, stamp)
    }

    fn committed_blocks(&self, path: &BlobPath) -> StoreResult<Vec<BlockId>> {
        self.inner.committed_blocks(path)
    }
}
