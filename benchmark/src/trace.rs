//! Spans and store counters, recorded from outside the engine.
//!
//! [`SpanStore`] sits between the engine and the object store it was given,
//! so every storage request crosses it. It always counts (calls, bytes, errors
//! — a handful of relaxed atomics per request) and, while the
//! recorder is tracing, also keeps a span per request. Client threads add a
//! root span per operation through [`Recorder::root`]. Spans stay in memory
//! and are written out once, when the run ends.

use polaris_store::{BlobMeta, BlobPath, BlockId, Bytes, ObjectStore, Stamp, StoreResult};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval. `parent` and `op` are 0 for a root span; a store
/// span carries the root span that caused it (see [`Recorder::take_spans`]).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Store traffic since the recorder was created (or last [`StoreCounts::since`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounts {
    pub write_calls: u64,
    pub read_calls: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub errors: u64,
}

impl StoreCounts {
    pub fn since(self, earlier: StoreCounts) -> StoreCounts {
        StoreCounts {
            write_calls: self.write_calls - earlier.write_calls,
            read_calls: self.read_calls - earlier.read_calls,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            errors: self.errors - earlier.errors,
        }
    }
}

thread_local! {
    /// The root span open on this thread, if any: store requests issued by the
    /// client thread itself (the WAL append, the manifest publish) get their
    /// parent here; requests issued by pool threads are adopted afterwards.
    static CURRENT_ROOT: Cell<u64> = const { Cell::new(0) };
}

pub struct Recorder {
    origin: Instant,
    tracing: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    write_calls: AtomicU64,
    read_calls: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    errors: AtomicU64,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            origin: Instant::now(),
            tracing: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            write_calls: AtomicU64::new(0),
            read_calls: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    pub fn is_tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            write_calls: self.write_calls.load(Ordering::Relaxed),
            read_calls: self.read_calls.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Time `f` as one client operation and return `(result, nanoseconds)`.
    /// While tracing, the interval is also kept as a root span.
    pub fn root<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.is_tracing() {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed().as_nanos() as u64);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT_ROOT.with(|c| c.replace(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT_ROOT.with(|c| c.set(outer));
        self.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent: 0,
            op: id,
        });
        (out, end_ns - start_ns)
    }

    /// Take the spans recorded so far, store spans adopted: a store span
    /// whose thread had no root open (a pool thread) becomes the child of the
    /// root span that contains it in time, when exactly one does — always the
    /// case with one client, and left at 0 where two clients' operations
    /// overlap. Sorted by start.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no thread panics while holding the span list"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let starts: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
        let roots: Vec<(u64, u64, u64)> = spans
            .iter()
            .filter(|s| s.op == s.id)
            .map(|s| (s.start_ns, s.end_ns, s.id))
            .collect();
        // (containing roots seen, the last of them) per span.
        let mut owners = vec![(0u32, 0u64); spans.len()];
        for (lo, hi, id) in roots {
            let first = starts.partition_point(|&s| s < lo);
            for (i, s) in spans.iter().enumerate().skip(first) {
                if s.start_ns > hi {
                    break;
                }
                if s.op == 0 && s.end_ns <= hi {
                    owners[i] = (owners[i].0 + 1, id);
                }
            }
        }
        for (s, (seen, id)) in spans.iter_mut().zip(owners) {
            if seen == 1 {
                s.parent = id;
                s.op = id;
            }
        }
        spans
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]` — the time
/// during which at least one of them was open.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut edge = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(edge);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

/// [`ObjectStore`] wrapper that reports every request to a [`Recorder`].
pub struct SpanStore<S> {
    inner: S,
    rec: Arc<Recorder>,
}

impl<S: ObjectStore> SpanStore<S> {
    pub fn new(inner: S, rec: Arc<Recorder>) -> Self {
        SpanStore { inner, rec }
    }

    fn call<T>(
        &self,
        name: &'static str,
        is_write: bool,
        bytes_in: usize,
        bytes_out: impl FnOnce(&T) -> usize,
        f: impl FnOnce(&S) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let rec = &*self.rec;
        let tracing = rec.is_tracing();
        let start_ns = if tracing { rec.now_ns() } else { 0 };
        let out = f(&self.inner);
        let calls = if is_write {
            &rec.write_calls
        } else {
            &rec.read_calls
        };
        calls.fetch_add(1, Ordering::Relaxed);
        match &out {
            Ok(v) => {
                rec.bytes_written
                    .fetch_add(bytes_in as u64, Ordering::Relaxed);
                rec.bytes_read
                    .fetch_add(bytes_out(v) as u64, Ordering::Relaxed);
            }
            Err(_) => {
                rec.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if tracing {
            let parent = CURRENT_ROOT.with(Cell::get);
            rec.push(Span {
                id: rec.next_id.fetch_add(1, Ordering::Relaxed),
                name,
                start_ns,
                end_ns: rec.now_ns(),
                parent,
                op: parent,
            });
        }
        out
    }
}

impl<S: ObjectStore> ObjectStore for SpanStore<S> {
    fn put(&self, path: &BlobPath, data: Bytes, stamp: Stamp) -> StoreResult<()> {
        let n = data.len();
        self.call("store.put", true, n, |_| 0, |s| s.put(path, data, stamp))
    }

    fn get(&self, path: &BlobPath) -> StoreResult<Bytes> {
        self.call("store.get", false, 0, Bytes::len, |s| s.get(path))
    }

    fn get_range(&self, path: &BlobPath, range: Range<u64>) -> StoreResult<Bytes> {
        self.call("store.get_range", false, 0, Bytes::len, |s| {
            s.get_range(path, range)
        })
    }

    fn head(&self, path: &BlobPath) -> StoreResult<BlobMeta> {
        self.call("store.head", false, 0, |_| 0, |s| s.head(path))
    }

    fn exists(&self, path: &BlobPath) -> StoreResult<bool> {
        self.call("store.exists", false, 0, |_| 0, |s| s.exists(path))
    }

    fn delete(&self, path: &BlobPath) -> StoreResult<()> {
        self.call("store.delete", true, 0, |_| 0, |s| s.delete(path))
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<BlobMeta>> {
        self.call("store.list", false, 0, |_| 0, |s| s.list(prefix))
    }

    fn stage_block(
        &self,
        path: &BlobPath,
        block: BlockId,
        data: Bytes,
        stamp: Stamp,
    ) -> StoreResult<()> {
        let n = data.len();
        self.call(
            "store.stage_block",
            true,
            n,
            |_| 0,
            |s| s.stage_block(path, block, data, stamp),
        )
    }

    fn commit_block_list(
        &self,
        path: &BlobPath,
        blocks: &[BlockId],
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.call(
            "store.commit_block_list",
            true,
            0,
            |_| 0,
            |s| s.commit_block_list(path, blocks, stamp),
        )
    }

    fn committed_blocks(&self, path: &BlobPath) -> StoreResult<Vec<BlockId>> {
        self.call(
            "store.committed_blocks",
            false,
            0,
            |_| 0,
            |s| s.committed_blocks(path),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_store::MemoryStore;

    #[test]
    fn covered_time_is_the_union() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (0, 5)];
        assert_eq!(covered_ns(&mut iv, 0, 100), 5 + 20 + 10);
        assert_eq!(covered_ns(&mut iv, 12, 45), 18 + 5);
    }

    #[test]
    fn counts_always_and_spans_only_while_tracing() {
        for tracing in [false, true] {
            let rec = Recorder::new();
            rec.set_tracing(tracing);
            let store = SpanStore::new(MemoryStore::new(), Arc::clone(&rec));
            let p = BlobPath::new("t/a").unwrap();
            let (_, ns) = rec.root("op", || {
                store
                    .put(&p, Bytes::from_static(b"abcd"), Stamp(1))
                    .unwrap();
                assert_eq!(store.get(&p).unwrap().len(), 4);
                assert!(store.get(&BlobPath::new("t/none").unwrap()).is_err());
            });
            assert!(ns > 0);
            let c = rec.counts();
            assert_eq!((c.write_calls, c.read_calls), (1, 2));
            assert_eq!((c.bytes_written, c.bytes_read, c.errors), (4, 4, 1));
            let spans = rec.take_spans();
            assert_eq!(spans.len(), if tracing { 4 } else { 0 });
            if tracing {
                let root = spans.iter().find(|s| s.name == "op").unwrap();
                assert!(spans
                    .iter()
                    .filter(|s| s.name != "op")
                    .all(|s| s.parent == root.id && s.op == root.id));
            }
        }
    }
}
