//! In-memory object store backend.

use crate::{BlobMeta, BlobPath, BlockId, ObjectStore, Stamp, StoreError, StoreResult};
use bytes::{Bytes, BytesMut};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;

/// Per-blob state: committed content plus the block machinery behind it.
#[derive(Debug, Default)]
struct BlobState {
    /// Concatenation of the committed block list (or the `put` payload).
    committed: Option<Bytes>,
    /// Creation stamp recorded at first write.
    stamp: Stamp,
    /// Payloads of blocks that are staged or referenced by the committed
    /// list. Committed block payloads are retained so later commits can
    /// re-list them (the "append" pattern).
    blocks: HashMap<BlockId, Bytes>,
    /// Currently committed block list, in order.
    committed_list: Vec<BlockId>,
    /// IDs that entered `blocks` since the last commit: the only payloads
    /// a commit that keeps the whole committed list can have to discard.
    staged: Vec<BlockId>,
}

/// In-memory [`ObjectStore`]. Cheap to clone via `Arc`; all operations are
/// linearizable under an internal `RwLock`.
///
/// This is the default backend for tests and benchmarks: the paper's
/// correctness story never depends on durability, only on the *visibility*
/// semantics of the block-blob protocol, which this backend implements
/// exactly.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blobs: RwLock<BTreeMap<BlobPath, BlobState>>,
}

impl MemoryStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed blobs (staged-only blobs are excluded).
    pub fn committed_count(&self) -> usize {
        self.blobs
            .read()
            .values()
            .filter(|b| b.committed.is_some())
            .count()
    }

    /// Total committed bytes across all blobs.
    pub fn committed_bytes(&self) -> u64 {
        self.blobs
            .read()
            .values()
            .filter_map(|b| b.committed.as_ref().map(|c| c.len() as u64))
            .sum()
    }
}

impl ObjectStore for MemoryStore {
    fn put(&self, path: &BlobPath, data: Bytes, stamp: Stamp) -> StoreResult<()> {
        let mut blobs = self.blobs.write();
        let state = blobs.entry(path.clone()).or_default();
        state.committed = Some(data);
        state.stamp = stamp;
        state.blocks.clear();
        state.committed_list.clear();
        state.staged.clear();
        Ok(())
    }

    fn get(&self, path: &BlobPath) -> StoreResult<Bytes> {
        self.blobs
            .read()
            .get(path)
            .and_then(|b| b.committed.clone())
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })
    }

    fn head(&self, path: &BlobPath) -> StoreResult<BlobMeta> {
        let blobs = self.blobs.read();
        let state = blobs
            .get(path)
            .filter(|b| b.committed.is_some())
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        Ok(BlobMeta {
            path: path.clone(),
            size: state.committed.as_ref().map_or(0, |c| c.len() as u64),
            stamp: state.stamp,
        })
    }

    fn delete(&self, path: &BlobPath) -> StoreResult<()> {
        let mut blobs = self.blobs.write();
        // A blob "exists" for deletion purposes if it has committed content
        // or staged blocks; phantom entries do not count.
        let exists = blobs
            .get(path)
            .is_some_and(|b| b.committed.is_some() || !b.blocks.is_empty());
        if !exists {
            return Err(StoreError::NotFound { path: path.clone() });
        }
        blobs.remove(path);
        Ok(())
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<BlobMeta>> {
        // Every path starting with `prefix` sorts at or after it, and before
        // the first path past it that does not: one range scan, not the map.
        Ok(self
            .blobs
            .read()
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(p, _)| p.starts_with(prefix))
            .filter_map(|(p, b)| {
                let committed = b.committed.as_ref()?;
                Some(BlobMeta {
                    path: p.clone(),
                    size: committed.len() as u64,
                    stamp: b.stamp,
                })
            })
            .collect())
    }

    fn stage_block(
        &self,
        path: &BlobPath,
        block: BlockId,
        data: Bytes,
        stamp: Stamp,
    ) -> StoreResult<()> {
        let mut blobs = self.blobs.write();
        let state = blobs.entry(path.clone()).or_default();
        if state.committed.is_none() {
            state.stamp = stamp;
        }
        if state.blocks.insert(block.clone(), data).is_none() {
            state.staged.push(block);
        }
        Ok(())
    }

    fn commit_block_list(
        &self,
        path: &BlobPath,
        blocks: &[BlockId],
        stamp: Stamp,
    ) -> StoreResult<()> {
        let mut map = self.blobs.write();
        // Validate and concatenate in one pass over the list, against the
        // existing state only: a failed commit neither mutates the blob nor
        // creates a phantom entry.
        let mut content = BytesMut::new();
        let existing = map.get(path);
        for id in blocks {
            match existing.and_then(|s| s.blocks.get(id)) {
                Some(payload) => content.extend_from_slice(payload),
                None => {
                    return Err(StoreError::UnknownBlock {
                        path: path.clone(),
                        block: id.clone(),
                    })
                }
            }
        }
        let state = map.entry(path.clone()).or_default();
        if state.committed.is_none() {
            state.stamp = stamp;
        }
        state.committed = Some(content.freeze());
        // How much of the old list the new one keeps as a prefix: all of it
        // in the append pattern, which re-lists every committed block.
        let shared = state
            .committed_list
            .iter()
            .zip(blocks)
            .take_while(|(old, new)| old == new)
            .count();
        // Retain only payloads referenced by the new committed list; staged
        // blocks left out are discarded (Azure semantics).
        if shared == state.committed_list.len() {
            // Nothing committed was dropped, so only a block staged since
            // the last commit can be unlisted — a handful, whatever the
            // blob's length.
            let appended: HashSet<&BlockId> = blocks[shared..].iter().collect();
            for id in state.staged.drain(..) {
                if !appended.contains(&id) {
                    state.blocks.remove(&id);
                }
            }
        } else {
            let listed: HashSet<&BlockId> = blocks.iter().collect();
            state.blocks.retain(|id, _| listed.contains(id));
            state.staged.clear();
        }
        state.committed_list.truncate(shared);
        state.committed_list.extend_from_slice(&blocks[shared..]);
        Ok(())
    }

    fn committed_blocks(&self, path: &BlobPath) -> StoreResult<Vec<BlockId>> {
        let blobs = self.blobs.read();
        let state = blobs
            .get(path)
            .filter(|b| b.committed.is_some())
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        Ok(state.committed_list.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trait_tests::conformance;

    #[test]
    fn conforms_to_object_store_semantics() {
        conformance(&MemoryStore::new());
    }

    #[test]
    fn counters_track_committed_state_only() {
        let s = MemoryStore::new();
        let p = BlobPath::new("a/b").unwrap();
        let m = BlobPath::new("a/m").unwrap();
        s.put(&p, Bytes::from_static(b"1234"), Stamp(1)).unwrap();
        s.stage_block(&m, BlockId::new("x"), Bytes::from_static(b"zz"), Stamp(1))
            .unwrap();
        assert_eq!(s.committed_count(), 1);
        assert_eq!(s.committed_bytes(), 4);
        s.commit_block_list(&m, &[BlockId::new("x")], Stamp(1))
            .unwrap();
        assert_eq!(s.committed_count(), 2);
        assert_eq!(s.committed_bytes(), 6);
    }

    #[test]
    fn failed_commit_leaves_blob_untouched() {
        let s = MemoryStore::new();
        let m = BlobPath::new("a/m").unwrap();
        let b1 = BlockId::new("b1");
        s.stage_block(&m, b1.clone(), Bytes::from_static(b"AA"), Stamp(1))
            .unwrap();
        s.commit_block_list(&m, std::slice::from_ref(&b1), Stamp(1))
            .unwrap();
        let err = s
            .commit_block_list(&m, &[b1.clone(), BlockId::new("ghost")], Stamp(1))
            .unwrap_err();
        assert!(matches!(err, StoreError::UnknownBlock { .. }));
        assert_eq!(s.get(&m).unwrap(), Bytes::from_static(b"AA"));
        assert_eq!(s.committed_blocks(&m).unwrap(), vec![b1]);
    }

    #[test]
    fn appending_one_block_generations_stays_linear_and_exact() {
        // The WAL / checkpoint shape: every commit re-lists the whole blob
        // plus one new block. 4 096 generations finish at once only if a
        // commit is linear in its list; content and list are checked as the
        // blob grows.
        let s = MemoryStore::new();
        let m = BlobPath::new("sys/log").unwrap();
        let mut ids = Vec::new();
        let mut expect = Vec::new();
        for g in 0..4096u32 {
            let id = BlockId::new(format!("g-{g:08}"));
            let payload = g.to_le_bytes();
            s.stage_block(&m, id.clone(), Bytes::copy_from_slice(&payload), Stamp(1))
                .unwrap();
            // A staged block left off the list is discarded by the commit.
            s.stage_block(
                &m,
                BlockId::new("stray"),
                Bytes::from_static(b"x"),
                Stamp(1),
            )
            .unwrap();
            ids.push(id);
            expect.extend_from_slice(&payload);
            s.commit_block_list(&m, &ids, Stamp(1)).unwrap();
            if (g + 1) % 512 == 0 {
                assert_eq!(s.get(&m).unwrap(), Bytes::from(expect.clone()), "gen {g}");
                assert_eq!(s.committed_blocks(&m).unwrap(), ids, "gen {g}");
                assert!(matches!(
                    s.commit_block_list(&m, &[BlockId::new("stray")], Stamp(1)),
                    Err(StoreError::UnknownBlock { .. })
                ));
            }
        }
    }

    #[test]
    fn restaging_a_block_replaces_payload() {
        let s = MemoryStore::new();
        let m = BlobPath::new("a/m").unwrap();
        let b = BlockId::new("b");
        s.stage_block(&m, b.clone(), Bytes::from_static(b"old"), Stamp(1))
            .unwrap();
        s.stage_block(&m, b.clone(), Bytes::from_static(b"new"), Stamp(1))
            .unwrap();
        s.commit_block_list(&m, &[b], Stamp(1)).unwrap();
        assert_eq!(s.get(&m).unwrap(), Bytes::from_static(b"new"));
    }

    #[test]
    fn put_clears_block_state() {
        let s = MemoryStore::new();
        let m = BlobPath::new("a/m").unwrap();
        let b = BlockId::new("b");
        s.stage_block(&m, b.clone(), Bytes::from_static(b"x"), Stamp(1))
            .unwrap();
        s.put(&m, Bytes::from_static(b"direct"), Stamp(2)).unwrap();
        assert!(matches!(
            s.commit_block_list(&m, &[b], Stamp(2)),
            Err(StoreError::UnknownBlock { .. })
        ));
        assert!(s.committed_blocks(&m).unwrap().is_empty());
    }
}
