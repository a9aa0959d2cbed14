//! Transient chunk-fetch faults must not poison a statement: a failed or
//! torn column-chunk range read surfaces as a transient task error and the
//! scheduler retries the morsel or task on another lane — for a SELECT's
//! and a DELETE's ranged reads, and for UPDATE's whole-blob read alike.

use bytes::Bytes;
use parking_lot::Mutex;
use polaris_core::{EngineConfig, PolarisEngine, StatementOutcome};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{
    BlobMeta, BlobPath, BlockId, FaultyStore, MemoryStore, ObjectStore, Stamp, StoreResult,
};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn scan_survives_transient_chunk_fetch_faults() {
    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), 0.0, 20260808));
    let pool = Arc::new(ComputePool::with_topology(4, 2, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    let engine = PolarisEngine::new(
        Arc::clone(&faulty) as Arc<dyn ObjectStore>,
        pool,
        EngineConfig::for_testing(),
    );
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
    // Four files of four row groups each (for_testing groups hold 128
    // rows), loaded fault-free.
    for f in 0..4i64 {
        let rows: Vec<String> = (0..512)
            .map(|i| format!("({}, {})", f * 512 + i, i))
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", rows.join(",")))
            .unwrap();
    }
    // Warm the snapshot cache while reads are still reliable, so the
    // faults below land on scan-path fetches (footers, chunks, DVs) that
    // run inside retryable DCP tasks — not on FE-side catalog reads.
    let n = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(n.column(0).value(0).as_int(), Some(2048));

    // 1% per read: each task attempt performs many range reads, so the
    // per-attempt failure odds compound well above 1% — high enough to
    // provoke retries, low enough to stay inside the 4-attempt budget.
    faulty.set_read_failure_rate(0.01);
    for _ in 0..10 {
        let sum = s.query("SELECT SUM(v) AS s FROM t WHERE v >= 128").unwrap();
        // Per file: v in 128..512 sums to sum(0..512) - sum(0..128).
        let per_file: i64 = (128..512).sum();
        assert_eq!(sum.column(0).value(0).as_int(), Some(4 * per_file));
        let n = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(n.column(0).value(0).as_int(), Some(2048));
    }
    faulty.set_read_failure_rate(0.0);

    let (_, read_faults) = faulty.injected_faults();
    assert!(
        read_faults > 0,
        "the chaos store must actually have injected read faults"
    );
}

/// While armed, the first read (`get` or `get_range`) of each `.pcf` blob
/// comes back one byte short — a torn transfer; every later read of it is
/// whole.
struct TornFirstRead {
    inner: MemoryStore,
    armed: AtomicBool,
    torn: Mutex<HashSet<String>>,
}

impl TornFirstRead {
    fn tear(&self, path: &BlobPath, mut bytes: Bytes) -> Bytes {
        if self.armed.load(Ordering::SeqCst)
            && path.as_str().ends_with(".pcf")
            && self.torn.lock().insert(path.as_str().to_owned())
        {
            bytes.truncate(bytes.len().saturating_sub(1));
        }
        bytes
    }

    /// Tear the next first read of every data file.
    fn arm(&self, on: bool) {
        self.torn.lock().clear();
        self.armed.store(on, Ordering::SeqCst);
    }

    fn torn_count(&self) -> usize {
        self.torn.lock().len()
    }
}

impl ObjectStore for TornFirstRead {
    fn put(&self, path: &BlobPath, data: Bytes, stamp: Stamp) -> StoreResult<()> {
        self.inner.put(path, data, stamp)
    }

    fn get(&self, path: &BlobPath) -> StoreResult<Bytes> {
        Ok(self.tear(path, self.inner.get(path)?))
    }

    fn get_range(&self, path: &BlobPath, range: Range<u64>) -> StoreResult<Bytes> {
        Ok(self.tear(path, self.inner.get_range(path, range)?))
    }

    fn head(&self, path: &BlobPath) -> StoreResult<BlobMeta> {
        self.inner.head(path)
    }

    fn delete(&self, path: &BlobPath) -> StoreResult<()> {
        self.inner.delete(path)
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<BlobMeta>> {
        self.inner.list(prefix)
    }

    fn stage_block(
        &self,
        path: &BlobPath,
        block: BlockId,
        data: Bytes,
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.inner.stage_block(path, block, data, stamp)
    }

    fn commit_block_list(
        &self,
        path: &BlobPath,
        blocks: &[BlockId],
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.inner.commit_block_list(path, blocks, stamp)
    }

    fn committed_blocks(&self, path: &BlobPath) -> StoreResult<Vec<BlockId>> {
        self.inner.committed_blocks(path)
    }
}

#[test]
fn delete_and_update_survive_a_torn_range_read() {
    let store = Arc::new(TornFirstRead {
        inner: MemoryStore::new(),
        armed: AtomicBool::new(false),
        torn: Mutex::new(HashSet::new()),
    });
    let pool = Arc::new(ComputePool::with_topology(4, 2, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    let engine = PolarisEngine::new(
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        pool,
        EngineConfig::for_testing(),
    );
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
    // Two files per distribution: a write task tears on each file's first
    // read once, so it needs three attempts of the four it gets.
    for f in 0..2i64 {
        let rows: Vec<String> = (0..256)
            .map(|i| format!("({}, {})", f * 256 + i, (f * 256 + i) % 100))
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", rows.join(",")))
            .unwrap();
    }
    let count = |s: &mut polaris_core::Session, sql: &str| {
        s.query(sql).unwrap().column(0).value(0).as_int().unwrap()
    };
    let to_delete = count(&mut s, "SELECT COUNT(*) AS n FROM t WHERE v < 10");
    assert!(to_delete > 0);

    store.arm(true);
    let out = s.execute("DELETE FROM t WHERE v < 10").unwrap();
    assert!(
        store.torn_count() > 0,
        "the DELETE read data files by range"
    );
    store.arm(false);
    assert!(matches!(out, StatementOutcome::Affected(n) if n as i64 == to_delete));
    assert_eq!(
        count(&mut s, "SELECT COUNT(*) AS n FROM t"),
        512 - to_delete
    );
    assert_eq!(count(&mut s, "SELECT COUNT(*) AS n FROM t WHERE v < 10"), 0);

    let to_update = count(&mut s, "SELECT COUNT(*) AS n FROM t WHERE k >= 300");
    store.arm(true);
    let out = s.execute("UPDATE t SET v = 1000 WHERE k >= 300").unwrap();
    assert!(store.torn_count() > 0, "the UPDATE read data files");
    store.arm(false);
    assert!(matches!(out, StatementOutcome::Affected(n) if n as i64 == to_update));
    assert_eq!(
        count(&mut s, "SELECT COUNT(*) AS n FROM t"),
        512 - to_delete
    );
    assert_eq!(
        count(&mut s, "SELECT COUNT(*) AS n FROM t WHERE v = 1000"),
        to_update
    );
}
