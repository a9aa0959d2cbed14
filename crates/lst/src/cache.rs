//! BE-side snapshot reconstruction cache (§3.2.1).

use crate::{LstResult, Manifest, SequenceId, TableSnapshot};
use parking_lot::Mutex;
use polaris_obs::CacheMeter;
use std::sync::Arc;

/// Caches reconstructed [`TableSnapshot`]s for one table so that different
/// operations on different snapshots share work, and new commits extend the
/// cached state *incrementally* instead of replaying from scratch.
///
/// The cache is purely an optimization: it lives on BE compute nodes and
/// its loss "has no impact on the overall consistency of the system" (§3.3)
/// — a fresh node rebuilds it from OneLake as queries run.
///
/// Hit/miss/replay accounting lives in a [`CacheMeter`] of lock-free
/// counters, so readers on the hit path never serialize on a stats lock and
/// the same counters can be shared with an engine-wide metrics registry via
/// [`SnapshotCache::with_meter`].
pub struct SnapshotCache {
    /// Cached snapshots, ascending by sequence. Bounded by `capacity`.
    entries: Mutex<Vec<(SequenceId, Arc<TableSnapshot>)>>,
    capacity: usize,
    meter: CacheMeter,
}

impl SnapshotCache {
    /// A cache retaining up to `capacity` distinct snapshots.
    pub fn new(capacity: usize) -> Self {
        SnapshotCache::with_meter(capacity, CacheMeter::default())
    }

    /// A cache whose counters are shared handles — typically
    /// [`CacheMeter::from_registry`], so hits and misses surface under
    /// `lst.cache.*` in the engine's metrics snapshot.
    pub fn with_meter(capacity: usize, meter: CacheMeter) -> Self {
        assert!(capacity > 0, "cache needs room for at least one snapshot");
        SnapshotCache {
            entries: Mutex::new(Vec::new()),
            capacity,
            meter,
        }
    }

    /// The cache's meter (shared counter handles).
    pub fn meter(&self) -> &CacheMeter {
        &self.meter
    }

    /// Snapshot as of `upto`, reconstructing incrementally.
    ///
    /// `fetch(from_exclusive, to_inclusive)` must return the committed
    /// manifests with sequence in `(from, to]`, ascending — in Polaris this
    /// reads the `Manifests` catalog rows and fetches manifest blobs.
    pub fn snapshot_at(
        &self,
        upto: SequenceId,
        fetch: impl FnOnce(SequenceId, SequenceId) -> LstResult<Vec<(SequenceId, Manifest)>>,
    ) -> LstResult<Arc<TableSnapshot>> {
        // Best cached base: the greatest cached sequence <= upto.
        let base: Option<(SequenceId, Arc<TableSnapshot>)> = {
            let entries = self.entries.lock();
            entries.iter().rev().find(|(seq, _)| *seq <= upto).cloned()
        };
        if let Some((seq, snap)) = &base {
            if *seq == upto {
                self.meter.hits.inc();
                return Ok(snap.clone());
            }
        }
        self.meter.misses.inc();
        let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::Replay);
        let mut replay_span = self.meter.tracer.span("lst.cache.replay");
        let from = base.as_ref().map_or(SequenceId(0), |(seq, _)| *seq);
        replay_span.attr("from", from.0);
        replay_span.attr("to", upto.0);
        let manifests = fetch(from, upto)?;
        self.meter.replayed_manifests.add(manifests.len() as u64);
        replay_span.attr("manifests", manifests.len());
        // Obtain an owned base to extend. When this reconstruction holds
        // the only reference to the cached base (the steady state for a
        // single stream of commits: the previous statement's snapshot is
        // already dropped), the entry is *stolen* and extended in place —
        // no deep clone of a file map that grows with every commit. A base
        // still shared with live readers is cloned as before; losing the
        // stolen entry on a replay error is fine because the cache is
        // purely an optimization.
        let mut entries = self.entries.lock();
        if let Ok(pos) = entries.binary_search_by_key(&upto, |(s, _)| *s) {
            // Raced with another reconstruction; keep the existing entry.
            return Ok(entries[pos].1.clone());
        }
        let mut snap = match base {
            Some((seq, handle)) => match entries.binary_search_by_key(&seq, |(s, _)| *s) {
                Ok(pos) => {
                    let (_, cached) = entries.remove(pos);
                    drop(handle);
                    match Arc::try_unwrap(cached) {
                        Ok(owned) => owned,
                        Err(shared) => {
                            let copy = (*shared).clone();
                            entries.insert(pos, (seq, shared));
                            copy
                        }
                    }
                }
                // The base was evicted while we fetched; clone our handle.
                Err(_) => (*handle).clone(),
            },
            None => TableSnapshot::empty(),
        };
        for (seq, m) in &manifests {
            snap.apply_manifest(*seq, m)?;
        }
        // The watermark advances to `upto` even if the tail had no
        // manifests for this table (commits to other tables still move the
        // global sequence).
        snap.set_upto(upto);
        let arc = Arc::new(snap);
        match entries.binary_search_by_key(&upto, |(s, _)| *s) {
            Ok(_) => {} // raced with another reconstruction; keep existing
            Err(pos) => {
                entries.insert(pos, (upto, arc.clone()));
                if entries.len() > self.capacity {
                    // Evict the oldest snapshot: recent sequences are the
                    // hot ones (new transactions always read fresh state).
                    entries.remove(0);
                }
            }
        }
        Ok(arc)
    }

    /// The greatest cached sequence `<= upto`, if any — used to decide
    /// whether restoring a checkpoint first would be cheaper than a full
    /// manifest replay.
    pub fn best_base(&self, upto: SequenceId) -> Option<SequenceId> {
        self.entries
            .lock()
            .iter()
            .rev()
            .find(|(seq, _)| *seq <= upto)
            .map(|(seq, _)| *seq)
    }

    /// Seed the cache with an externally reconstructed snapshot (a restored
    /// checkpoint, §5.2). Later `snapshot_at` calls extend from it.
    pub fn seed(&self, snapshot: TableSnapshot) {
        let seq = snapshot.upto();
        let mut entries = self.entries.lock();
        if let Err(pos) = entries.binary_search_by_key(&seq, |(s, _)| *s) {
            entries.insert(pos, (seq, Arc::new(snapshot)));
            if entries.len() > self.capacity {
                entries.remove(0);
            }
        }
    }

    /// Drop every cached snapshot (simulates node restart / cache loss).
    pub fn invalidate(&self) {
        self.entries.lock().clear();
    }

    /// (hits, misses) since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.meter.hits.get(), self.meter.misses.get())
    }

    /// `(resident snapshots, capacity)` — the cache-pressure probe
    /// continuous telemetry samples per table. A cache pinned at capacity
    /// with a high miss rate means reconstruction is thrashing.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.entries.lock().len(), self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManifestAction;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn manifest(i: u64) -> Manifest {
        Manifest::from_actions(vec![ManifestAction::add_file(
            format!("t/f{i}"),
            10,
            100,
            0,
        )])
    }

    /// Fetch closure serving manifests 1..=10, counting invocations.
    fn fetcher(
        calls: &AtomicUsize,
    ) -> impl Fn(SequenceId, SequenceId) -> LstResult<Vec<(SequenceId, Manifest)>> + '_ {
        move |from, to| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok((from.0 + 1..=to.0)
                .map(|i| (SequenceId(i), manifest(i)))
                .collect())
        }
    }

    #[test]
    fn cold_build_then_hit() {
        let cache = SnapshotCache::new(4);
        let calls = AtomicUsize::new(0);
        let s1 = cache.snapshot_at(SequenceId(5), fetcher(&calls)).unwrap();
        assert_eq!(s1.file_count(), 5);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let s2 = cache.snapshot_at(SequenceId(5), fetcher(&calls)).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "hit must not re-fetch");
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn incremental_extension_from_cached_base() {
        let cache = SnapshotCache::new(4);
        let calls = AtomicUsize::new(0);
        cache.snapshot_at(SequenceId(5), fetcher(&calls)).unwrap();
        // Extending to 8 must fetch only (5, 8].
        let ranges = Mutex::new(Vec::new());
        let s = cache
            .snapshot_at(SequenceId(8), |from, to| {
                ranges.lock().push((from, to));
                Ok((from.0 + 1..=to.0)
                    .map(|i| (SequenceId(i), manifest(i)))
                    .collect())
            })
            .unwrap();
        assert_eq!(s.file_count(), 8);
        assert_eq!(*ranges.lock(), vec![(SequenceId(5), SequenceId(8))]);
    }

    #[test]
    fn older_snapshot_reconstructs_without_using_newer_base() {
        let cache = SnapshotCache::new(4);
        let calls = AtomicUsize::new(0);
        cache.snapshot_at(SequenceId(8), fetcher(&calls)).unwrap();
        // Time travel to 3: cannot extend from 8, rebuilds from empty.
        let s = cache.snapshot_at(SequenceId(3), fetcher(&calls)).unwrap();
        assert_eq!(s.file_count(), 3);
        assert_eq!(s.upto(), SequenceId(3));
    }

    #[test]
    fn eviction_bounds_entries() {
        let cache = SnapshotCache::new(2);
        let calls = AtomicUsize::new(0);
        for seq in 1..=5u64 {
            cache.snapshot_at(SequenceId(seq), fetcher(&calls)).unwrap();
        }
        // Oldest entries evicted; newest still hits.
        let before = calls.load(Ordering::SeqCst);
        cache.snapshot_at(SequenceId(5), fetcher(&calls)).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), before);
        // Evicted seq 1 rebuilds (from scratch or nearest smaller base).
        cache.snapshot_at(SequenceId(1), fetcher(&calls)).unwrap();
        assert!(calls.load(Ordering::SeqCst) > before);
    }

    #[test]
    fn invalidate_forces_rebuild() {
        let cache = SnapshotCache::new(4);
        let calls = AtomicUsize::new(0);
        cache.snapshot_at(SequenceId(3), fetcher(&calls)).unwrap();
        cache.invalidate();
        cache.snapshot_at(SequenceId(3), fetcher(&calls)).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // Consistency is unaffected by cache loss.
        let s = cache.snapshot_at(SequenceId(3), fetcher(&calls)).unwrap();
        assert_eq!(s.file_count(), 3);
    }

    #[test]
    fn replay_lengths_are_counted() {
        let cache = SnapshotCache::new(4);
        let calls = AtomicUsize::new(0);
        cache.snapshot_at(SequenceId(5), fetcher(&calls)).unwrap();
        assert_eq!(cache.meter().replayed_manifests.get(), 5);
        // Incremental extension replays only the (5, 8] tail.
        cache.snapshot_at(SequenceId(8), fetcher(&calls)).unwrap();
        assert_eq!(cache.meter().replayed_manifests.get(), 8);
        // A hit replays nothing.
        cache.snapshot_at(SequenceId(8), fetcher(&calls)).unwrap();
        assert_eq!(cache.meter().replayed_manifests.get(), 8);
    }

    #[test]
    fn concurrent_readers_agree_on_stats() {
        // Hammer one cache from many threads; with lock-free counters the
        // totals must still add up: every snapshot_at is exactly one hit or
        // one miss, and every reader sees a correct snapshot.
        let cache = Arc::new(SnapshotCache::new(8));
        let threads = 8;
        let iters = 200;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..iters {
                        let upto = SequenceId(1 + ((t + i) % 4) as u64);
                        let snap = cache
                            .snapshot_at(upto, |from, to| {
                                Ok((from.0 + 1..=to.0)
                                    .map(|i| (SequenceId(i), manifest(i)))
                                    .collect())
                            })
                            .unwrap();
                        assert_eq!(snap.upto(), upto);
                        assert_eq!(snap.file_count(), upto.0 as usize);
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, (threads * iters) as u64);
        assert!(hits > 0, "steady state must serve hits");
        assert!(misses >= 4, "each distinct sequence missed at least once");
    }

    #[test]
    fn watermark_advances_past_empty_tail() {
        let cache = SnapshotCache::new(4);
        // Table had manifests only at seq 1..=2, but global sequence is 9.
        let s = cache
            .snapshot_at(SequenceId(9), |from, _to| {
                Ok((from.0 + 1..=2)
                    .map(|i| (SequenceId(i), manifest(i)))
                    .collect())
            })
            .unwrap();
        assert_eq!(s.file_count(), 2);
        assert_eq!(s.upto(), SequenceId(9));
    }
}
