//! Generic multi-version store with Snapshot Isolation — the transactional
//! engine the SQL FE runs user transactions on.

use crate::{CatalogError, CatalogResult};
use parking_lot::{Mutex, RwLock};
use polaris_obs::CatalogMeter;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

/// Lock a std mutex, shrugging off poisoning: the group-commit monitor
/// state stays consistent across a panicking member (entries are only
/// mutated under the lock, never left half-edited).
fn lock_unpoisoned<T>(m: &StdMutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The bounds every [`MvccStore`] key type must satisfy: totally ordered
/// (versioned rows live in a `BTreeMap`), cloneable (buffered writes),
/// hashable (the Serializable read set is a `HashSet`) and
/// debug-printable (conflict errors name the key). Blanket-implemented —
/// never implement it by hand.
pub trait MvccKey: Ord + Clone + Hash + std::fmt::Debug {}

impl<K: Ord + Clone + Hash + std::fmt::Debug> MvccKey for K {}

/// Logical commit timestamp. Timestamp 0 is "before everything".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// Transaction identifier, unique for the lifetime of the store.
///
/// Mirrors the paper's durable SQL DB transaction id (§3.1) used to stamp
/// files for garbage collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// Isolation level of a transaction (§4.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Snapshot Isolation: reads see the snapshot as of transaction begin;
    /// first-committer-wins on writes. The Polaris default.
    #[default]
    Snapshot,
    /// Read-Committed Snapshot Isolation: each read sees the latest
    /// committed state at the time of the read.
    ReadCommittedSnapshot,
    /// Serializable: SI plus read-set validation (a transaction aborts if
    /// anything it read was overwritten by a concurrent committer).
    Serializable,
}

/// Granularity of write-write conflict detection (§4.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictGranularity {
    /// Conflicts detected per table — the schema shown in Figure 4.
    #[default]
    Table,
    /// Conflicts detected per data file: two updates/deletes conflict only
    /// if they touch the same data file.
    DataFile,
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Executing (read phase, §4.1.1).
    Active,
    /// Validation succeeded and writes are installed.
    Committed,
    /// Rolled back (user abort or failed validation).
    Aborted,
}

/// Result of a successful commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The commit timestamp — also the logical *sequence number* assigned
    /// to the transaction's manifests.
    pub commit_ts: Timestamp,
}

/// One commit inside the sequencer's global section, and what the durable
/// commit-log hook sees of it: the transaction's full effect — its buffered
/// writes plus the extra writes computed at the commit point (manifest rows
/// keyed by the fresh sequence number). A hook that persists these fields
/// can replay the commit verbatim on recovery; `None` values are
/// tombstones.
pub struct CommitLogRecord<K, V> {
    /// The committing transaction's durable id.
    pub txn: TxnId,
    /// The timestamp this member commits at (dense within the batch).
    pub commit_ts: Timestamp,
    /// The transaction's buffered writes, sorted by key.
    pub writes: Vec<(K, Option<V>)>,
    /// Extra writes computed at the commit point (see
    /// [`MvccStore::commit_with`]).
    pub extra: Vec<(K, Option<V>)>,
}

/// Durable commit-log hook: called once per sequencer batch, under the
/// sequencer, before any member installs. The slice holds the batch's
/// members in commit-timestamp order — a dense run starting at the first
/// member's `commit_ts` — each with its full write payload, so the hook can
/// persist a replayable log entry. Returning `Err` aborts the whole batch
/// *without consuming any timestamps* — the commit clock stays dense. This
/// is the per-batch write that group commit amortizes (the paper's SQL-FE
/// commit record; cf. LakeVilla's grouped log append).
pub type CommitLog<K, V> =
    Arc<dyn Fn(&[CommitLogRecord<K, V>]) -> Result<(), String> + Send + Sync>;

/// Commit failpoint probe, for crash-injection harnesses: invoked with a
/// named point (`commit.validated`, `commit.sequencer`, `commit.logged`,
/// `commit.installed`, `commit.published`) as a commit passes it. The
/// chaos harness arms a probe that freezes the backing store at a chosen
/// point, simulating process death there; production engines leave it
/// unset and pay one uncontended read-lock probe per point.
pub type CommitProbe = Arc<dyn Fn(&str) + Send + Sync>;

/// Extra-writes closure in boxed form (group-commit queue entries carry it
/// across threads to whichever committer ends up leading their batch).
type ExtraFn<K, V> = Box<dyn FnOnce(Timestamp) -> Vec<(K, Option<V>)> + Send>;

/// Where a queued committer's outcome lands. The leader fills it after
/// publishing the batch; the owning committer parks on the group condvar,
/// not on this mutex, so the fill is uncontended in practice.
struct CommitSlot(StdMutex<Option<CatalogResult<Timestamp>>>);

/// A validated commit parked in the group-commit queue. If it took the
/// commit lock, the enqueuing thread still holds it, so no other
/// validating commit can pass until this entry publishes — which is why
/// batch members never conflict pairwise and the leader can install them
/// without revalidation.
struct BatchEntry<K: 'static, V: 'static> {
    /// The member, holding the write-set entries taken from its
    /// [`WriteSet`]. The leader recycles their storage into the store's
    /// scratch pool once the batch is through the sequencer.
    member: CommitLogRecord<K, V>,
    extra: ExtraFn<K, V>,
    slot: Arc<CommitSlot>,
}

/// Group-commit queue state, guarded by [`GroupCommit::state`].
struct GroupQueue<K: 'static, V: 'static> {
    pending: VecDeque<BatchEntry<K, V>>,
    /// Whether some committer is currently draining a batch through the
    /// sequencer. At most one leader exists at a time; everyone else
    /// waits on the condvar.
    leader_active: bool,
}

/// The group-commit monitor: queue + condvar. The condvar is notified on
/// enqueue (a window-waiting leader counts pending entries) and when a
/// leader finishes (parked followers re-check their slots and leadership).
struct GroupCommit<K: 'static, V: 'static> {
    state: StdMutex<GroupQueue<K, V>>,
    cv: Condvar,
}

/// Bookkeeping for one in-flight transaction: its snapshot pins the GC
/// watermark; its begin instant lets the stall watchdog age the oldest
/// holder without scanning transaction handles.
#[derive(Clone, Copy, Debug)]
struct ActiveTxn {
    snapshot: Timestamp,
    since: Instant,
}

/// One version of a key: installed at `ts` by `txn`; `value == None` is a
/// tombstone (delete).
#[derive(Debug, Clone)]
struct Version<V> {
    ts: Timestamp,
    value: Option<V>,
}

/// The versioned rows: per key, its versions in ascending timestamp order.
type Rows<K, V> = BTreeMap<K, Vec<Version<V>>>;

/// The value of the newest version at or below `ts`; `None` if the key
/// did not exist then or was deleted.
fn visible_at<V>(versions: &[Version<V>], ts: Timestamp) -> Option<&V> {
    versions
        .iter()
        .rev()
        .find(|v| v.ts <= ts)
        .and_then(|v| v.value.as_ref())
}

/// A transaction's buffered writes: entries kept sorted by key in one
/// flat vector. Functionally a drop-in for the former
/// `BTreeMap<K, Option<V>>`, with one load-bearing difference:
/// `clear()` keeps the backing allocation, so a pooled transaction's
/// write set reaches steady state and stops allocating. (A `BTreeMap`
/// frees its nodes on clear and reallocates them insert by insert — it
/// can never be pooled.) Write sets are small — a handful of catalog
/// keys per commit — where a sorted vector also wins on constant
/// factors.
#[derive(Debug, Default)]
struct WriteSet<K, V> {
    entries: Vec<(K, Option<V>)>,
}

impl<K: Ord, V> WriteSet<K, V> {
    /// Number of buffered writes.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Buffered keys, ascending.
    fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Upsert: an existing key's value is replaced in place.
    fn insert(&mut self, key: K, value: Option<V>) {
        match self.entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (key, value)),
        }
    }

    /// The buffered entry for `key`: `Some(&None)` is a buffered delete.
    fn get(&self, key: &K) -> Option<&Option<V>> {
        self.entries
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Entries with keys in the `[lo, hi]` bounds, ascending.
    fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> &[(K, Option<V>)] {
        let start = self.entries.partition_point(|(k, _)| match lo {
            Bound::Included(b) => k < b,
            Bound::Excluded(b) => k <= b,
            Bound::Unbounded => false,
        });
        let end = self.entries.partition_point(|(k, _)| match hi {
            Bound::Included(b) => k <= b,
            Bound::Excluded(b) => k < b,
            Bound::Unbounded => true,
        });
        &self.entries[start..end.max(start)]
    }

    /// Capacity-preserving clear.
    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Upper bound on pooled transaction contexts. Beyond this, retired
/// scratch is simply dropped — the pool's job is steady-state reuse, not
/// unbounded retention of a burst's worth of buffers.
const SCRATCH_POOL_MAX: usize = 64;

/// Recyclable per-transaction storage: the write-set vector and the
/// Serializable read set. Every terminal
/// transition clears these containers capacity-preserving and returns
/// them to the store's pool; `begin` draws from the pool, so a warm store
/// runs whole transactions without allocating per-transaction state.
struct TxnScratch<K, V> {
    writes: Vec<(K, Option<V>)>,
    reads: HashSet<K>,
}

/// A transaction handle. Writes buffer locally and become visible only if
/// [`MvccStore::commit`] succeeds — the optimistic read phase of §4.1.1.
#[derive(Debug)]
pub struct Txn<K, V> {
    /// Unique id.
    pub id: TxnId,
    /// Snapshot timestamp: this transaction sees versions with `ts <=
    /// snapshot`.
    pub snapshot: Timestamp,
    /// Isolation level.
    pub isolation: IsolationLevel,
    writes: WriteSet<K, V>,
    /// Keys read, tracked only under `Serializable`.
    reads: HashSet<K>,
    status: TxnStatus,
}

impl<K: Ord + Clone, V> Txn<K, V> {
    /// Current status.
    pub fn status(&self) -> TxnStatus {
        self.status
    }

    /// Number of buffered writes.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Tracked read-set size. Non-zero only under `Serializable`, and
    /// only while the transaction is active: every terminal transition
    /// clears it (a leaked read set would poison pooled reuse with
    /// phantom serialization conflicts).
    pub fn read_count(&self) -> usize {
        self.reads.len()
    }
}

impl<K, V> CommitLogRecord<K, V> {
    /// A sequencer member for `txn`, taking its buffered writes (the
    /// timestamp and the extra writes are the sequencer's to fill in).
    fn new(txn: &mut Txn<K, V>) -> Self {
        CommitLogRecord {
            txn: txn.id,
            commit_ts: Timestamp(0),
            writes: std::mem::take(&mut txn.writes.entries),
            extra: Vec::new(),
        }
    }
}

/// Generic MVCC store with Snapshot Isolation.
///
/// Concurrency model: many transactions execute concurrently; reads are
/// never blocked; validating commits serialize through one commit lock
/// (§4.1.2 step 2). A commit takes it if and only if it has something to
/// validate: a non-empty write set, or a non-empty read set under
/// `Serializable`. A read-only SI commit, or a pure insert whose manifest
/// rows arrive through `extra`, takes no lock at all.
///
/// Validation — the per-key work that grows with the write set — runs
/// under the commit lock only. The remaining serial tail is a short global
/// *sequencer* section in which the commit timestamp is drawn, all
/// versions install under it, and the visible clock publishes it — as one
/// atomic step. Timestamps are therefore dense, allocation-ordered and
/// publication-ordered: when [`MvccStore::now`] reads `t`, every commit
/// `<= t` is fully installed and no commit `> t` is visible anywhere.
/// Subsystems that equate commit timestamps with manifest *sequence
/// numbers* (snapshot reconstruction, checkpoints, GC retention) depend
/// on that contiguity — a snapshot must never observe sequence `t` while
/// a hole below `t` is still installing.
pub struct MvccStore<K: 'static, V: 'static> {
    /// Visible commit watermark: every commit with `ts <= committed` is
    /// fully installed, and nothing above it is visible. New snapshots
    /// read this.
    committed: AtomicU64,
    /// The commit sequencer: draws the next timestamp(s), installs under
    /// them and publishes as one atomic step (see
    /// [`MvccStore::commit_with`]).
    sequencer: Mutex<()>,
    /// Next transaction id.
    next_txn: AtomicU64,
    /// Serializes first-committer-wins validation and the prepare stage
    /// (see [`MvccStore::commit_with_prepared`]).
    commit_lock: Mutex<()>,
    /// The versioned rows. RwLock: reads share, installs exclusive.
    rows: RwLock<Rows<K, V>>,
    /// Active transactions: id -> snapshot ts + begin instant (GC
    /// watermarks per §5.3, plus the watchdog's oldest-transaction age).
    active: Mutex<HashMap<TxnId, ActiveTxn>>,
    /// Retired transaction contexts, recycled by `begin`. Bounded by
    /// [`SCRATCH_POOL_MAX`]; see [`TxnScratch`].
    scratch_pool: Mutex<Vec<TxnScratch<K, V>>>,
    /// Group-commit queue (used only when `group_max_batch > 1`).
    group: GroupCommit<K, V>,
    /// Max transactions batched through one sequencer section. 1 (the
    /// default) skips the queue: every commit is its own batch of one.
    group_max_batch: AtomicUsize,
    /// How long a batch leader waits for the queue to fill before
    /// draining a partial batch.
    group_window_us: AtomicU64,
    /// Optional durable commit-log hook, invoked once per batch.
    commit_log: RwLock<Option<CommitLog<K, V>>>,
    /// Optional commit failpoint probe (crash-injection harnesses only).
    commit_probe: RwLock<Option<CommitProbe>>,
    /// Commit/abort/conflict accounting (lock-free handles, shareable with
    /// an engine-wide metrics registry).
    meter: CatalogMeter,
}

impl<K: MvccKey + Send + 'static, V: Clone + Send + 'static> Default for MvccStore<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: MvccKey + Send + 'static, V: Clone + Send + 'static> MvccStore<K, V> {
    /// An empty store at timestamp 0.
    pub fn new() -> Self {
        Self::with_meter(CatalogMeter::default())
    }

    /// An empty store recording into `meter` — typically
    /// [`CatalogMeter::from_registry`], so commit outcomes and commit-lock
    /// hold times surface under `catalog.*` in the engine's metrics.
    pub fn with_meter(meter: CatalogMeter) -> Self {
        MvccStore {
            committed: AtomicU64::new(0),
            sequencer: Mutex::new(()),
            next_txn: AtomicU64::new(1),
            commit_lock: Mutex::new(()),
            rows: RwLock::new(BTreeMap::new()),
            active: Mutex::new(HashMap::new()),
            scratch_pool: Mutex::new(Vec::new()),
            group: GroupCommit {
                state: StdMutex::new(GroupQueue {
                    pending: VecDeque::new(),
                    leader_active: false,
                }),
                cv: Condvar::new(),
            },
            group_max_batch: AtomicUsize::new(1),
            group_window_us: AtomicU64::new(0),
            commit_log: RwLock::new(None),
            commit_probe: RwLock::new(None),
            meter,
        }
    }

    /// Configure group commit: up to `max_batch` validated transactions
    /// share one sequencer section, and a batch leader waits up to
    /// `window` for the queue to fill before draining a partial batch.
    /// `max_batch <= 1` disables batching (every commit a batch of one).
    /// Safe to call at runtime; new commits observe the new setting.
    pub fn set_group_commit(&self, max_batch: usize, window: Duration) {
        self.group_max_batch
            .store(max_batch.max(1), Ordering::SeqCst);
        self.group_window_us
            .store(window.as_micros() as u64, Ordering::SeqCst);
    }

    /// Current group-commit batch cap (1 = batching disabled).
    pub fn group_commit_max_batch(&self) -> usize {
        self.group_max_batch.load(Ordering::SeqCst).max(1)
    }

    /// Install (or clear) the durable commit-log hook. See [`CommitLog`].
    pub fn set_commit_log(&self, hook: Option<CommitLog<K, V>>) {
        *self.commit_log.write() = hook;
    }

    /// Install (or clear) the commit failpoint probe. See [`CommitProbe`].
    pub fn set_commit_probe(&self, probe: Option<CommitProbe>) {
        *self.commit_probe.write() = probe;
    }

    /// Fire the failpoint probe, if armed. No-op (one uncontended read
    /// lock, no allocation) when no probe is installed.
    fn probe(&self, point: &str) {
        if let Some(p) = self.commit_probe.read().as_ref() {
            p(point);
        }
    }

    /// The store's meter (shared counter/histogram handles).
    pub fn meter(&self) -> &CatalogMeter {
        &self.meter
    }

    /// Latest fully installed commit timestamp.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.committed.load(Ordering::SeqCst))
    }

    /// Advance the commit clock to at least `floor` — used when a catalog
    /// is rebuilt from an image (recovery, backup restore) so new commits
    /// sequence after everything it holds. Must not race in-flight commits
    /// (a rebuild happens before traffic).
    pub fn advance_clock(&self, floor: Timestamp) {
        self.committed.fetch_max(floor.0, Ordering::SeqCst);
    }

    /// Advance the transaction-id allocator past `floor` — a rebuilt
    /// catalog calls this with the largest transaction id the durable state
    /// holds, so later transactions never reuse the id of a committed one
    /// (the GC watermark of §5.3 is expressed in transaction ids; manifest
    /// and data file names carry them). An id only a transaction in flight
    /// at the crash used is not in the durable state and may be handed out
    /// again: GC keeps that transaction's blobs until the allocator has
    /// passed their stamp.
    pub fn advance_txn_ids(&self, floor: TxnId) {
        self.next_txn.fetch_max(floor.0 + 1, Ordering::SeqCst);
    }

    /// Build a transaction handle on recycled scratch (or fresh, empty
    /// containers when the pool is dry). Pool hits make `begin` —
    /// and everything downstream that grows into the recycled
    /// capacity — allocation-free.
    fn txn_from_pool(
        &self,
        id: TxnId,
        snapshot: Timestamp,
        isolation: IsolationLevel,
    ) -> Txn<K, V> {
        let scratch = self
            .scratch_pool
            .lock()
            .pop()
            .unwrap_or_else(|| TxnScratch {
                writes: Vec::new(),
                reads: HashSet::new(),
            });
        debug_assert!(scratch.writes.is_empty() && scratch.reads.is_empty());
        Txn {
            id,
            snapshot,
            isolation,
            writes: WriteSet {
                entries: scratch.writes,
            },
            reads: scratch.reads,
            status: TxnStatus::Active,
        }
    }

    /// One terminal transition: set the final status, drop the
    /// transaction from the active set, and recycle its cleared
    /// containers into the scratch pool. Clearing BOTH sets here — reads
    /// included, on every path — is load-bearing twice over: a
    /// Serializable read set must not outlive its transaction, and pooled
    /// storage must never leak one transaction's keys into the next.
    fn finish(&self, txn: &mut Txn<K, V>, status: TxnStatus) {
        txn.status = status;
        self.active.lock().remove(&txn.id);
        txn.writes.clear();
        txn.reads.clear();
        self.recycle(TxnScratch {
            writes: std::mem::take(&mut txn.writes.entries),
            reads: std::mem::take(&mut txn.reads),
        });
    }

    /// Return retired scratch to the pool (dropped if the pool is full).
    fn recycle(&self, scratch: TxnScratch<K, V>) {
        let mut pool = self.scratch_pool.lock();
        if pool.len() < SCRATCH_POOL_MAX {
            pool.push(scratch);
        }
    }

    /// Begin a transaction at the current snapshot.
    ///
    /// Because commits draw, install and publish their timestamp as one
    /// atomic sequencer step, the watermark read here covers *every*
    /// commit that has completed — in particular this session's own last
    /// commit, so a writer never spuriously conflicts with itself.
    pub fn begin(&self, isolation: IsolationLevel) -> Txn<K, V> {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::SeqCst));
        let snapshot = self.now();
        self.active.lock().insert(
            id,
            ActiveTxn {
                snapshot,
                since: Instant::now(),
            },
        );
        self.txn_from_pool(id, snapshot, isolation)
    }

    /// Begin a transaction pinned to an explicit snapshot (time travel /
    /// Query As Of, §6.1). Such transactions are read-only by convention;
    /// writes would fail validation against everything committed since.
    pub fn begin_at(&self, snapshot: Timestamp) -> Txn<K, V> {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::SeqCst));
        self.active.lock().insert(
            id,
            ActiveTxn {
                snapshot,
                since: Instant::now(),
            },
        );
        self.txn_from_pool(id, snapshot, IsolationLevel::Snapshot)
    }

    /// The effective read timestamp for a transaction right now.
    fn read_ts(&self, txn: &Txn<K, V>) -> Timestamp {
        match txn.isolation {
            IsolationLevel::ReadCommittedSnapshot => self.now(),
            _ => txn.snapshot,
        }
    }

    /// Read a key through the transaction's snapshot, overlaid with its own
    /// writes.
    pub fn read(&self, txn: &mut Txn<K, V>, key: &K) -> CatalogResult<Option<V>> {
        self.ensure_active(txn)?;
        if txn.isolation == IsolationLevel::Serializable {
            txn.reads.insert(key.clone());
        }
        if let Some(buffered) = txn.writes.get(key) {
            return Ok(buffered.clone());
        }
        let ts = self.read_ts(txn);
        let rows = self.rows.read();
        Ok(rows.get(key).and_then(|vs| visible_at(vs, ts)).cloned())
    }

    /// Greatest key in range with a live (non-tombstone) value visible to
    /// the transaction, overlaid with its own writes.
    ///
    /// Unlike [`MvccStore::scan`], no values are cloned and no result set
    /// is materialized: the walk runs down from the top of the range and
    /// stops at the first live key, so "latest row in range" probes (e.g.
    /// a table's newest manifest sequence) cost O(log n) regardless of how
    /// many rows the range holds.
    pub fn last_key_in_range(
        &self,
        txn: &mut Txn<K, V>,
        lo: Bound<&K>,
        hi: Bound<&K>,
    ) -> CatalogResult<Option<K>> {
        self.ensure_active(txn)?;
        let ts = self.read_ts(txn);
        let best = {
            let rows = self.rows.read();
            // A buffered local write decides visibility for its key: an
            // upsert keeps the key live, a tombstone hides it.
            let committed = rows.range((lo, hi)).rev().find_map(|(k, versions)| {
                let live = match txn.writes.get(k) {
                    Some(buffered) => buffered.is_some(),
                    None => visible_at(versions, ts).is_some(),
                };
                live.then_some(k)
            });
            // Locally inserted keys may extend past everything committed.
            let own = txn.writes.range(lo, hi).iter().rev();
            let own = own.filter(|(_, w)| w.is_some()).map(|(k, _)| k).next();
            committed.max(own).cloned()
        };
        if txn.isolation == IsolationLevel::Serializable {
            if let Some(k) = &best {
                txn.reads.insert(k.clone());
            }
        }
        Ok(best)
    }

    /// Range scan `[lo, hi]` through the transaction's snapshot, overlaid
    /// with its own writes, ascending by key.
    pub fn scan(
        &self,
        txn: &mut Txn<K, V>,
        lo: Bound<&K>,
        hi: Bound<&K>,
    ) -> CatalogResult<Vec<(K, V)>> {
        self.ensure_active(txn)?;
        let ts = self.read_ts(txn);
        // Both sides are sorted by key: merge them, a buffered write
        // replacing (or, as a tombstone, hiding) the committed row.
        let mut own = txn.writes.range(lo, hi).iter().peekable();
        let mut out = Vec::new();
        let mut emit = |k: &K, v: Option<&V>| {
            if let Some(v) = v {
                out.push((k.clone(), v.clone()));
            }
        };
        {
            let rows = self.rows.read();
            for (k, versions) in rows.range((lo, hi)) {
                while let Some((wk, w)) = own.next_if(|(wk, _)| wk < k) {
                    emit(wk, w.as_ref());
                }
                match own.next_if(|(wk, _)| wk == k) {
                    Some((_, w)) => emit(k, w.as_ref()),
                    None => emit(k, visible_at(versions, ts)),
                }
            }
        }
        for (wk, w) in own {
            emit(wk, w.as_ref());
        }
        if txn.isolation == IsolationLevel::Serializable {
            for (k, _) in &out {
                txn.reads.insert(k.clone());
            }
        }
        Ok(out)
    }

    /// Buffer a write (upsert). Visible to this transaction immediately,
    /// to others only after commit.
    pub fn write(&self, txn: &mut Txn<K, V>, key: K, value: V) -> CatalogResult<()> {
        self.ensure_active(txn)?;
        txn.writes.insert(key, Some(value));
        Ok(())
    }

    /// Buffer a delete (tombstone).
    pub fn delete(&self, txn: &mut Txn<K, V>, key: K) -> CatalogResult<()> {
        self.ensure_active(txn)?;
        txn.writes.insert(key, None);
        Ok(())
    }

    /// Validation + commit (§4.1.2).
    ///
    /// Under the commit lock, taken only if there is something to validate
    /// (a write set, or a read set under `Serializable`):
    /// first-committer-wins validation of the write set (and read set
    /// under `Serializable`); on success a commit timestamp is drawn
    /// atomically, `extra(commit_ts)` may contribute additional writes
    /// computed *at* the commit point (Polaris uses this to insert
    /// `Manifests` rows keyed by the just-assigned sequence number), and
    /// all versions install atomically under that single timestamp.
    ///
    /// `extra` writes are installed without validation or locking —
    /// they must be keys the transaction exclusively owns by construction
    /// (Polaris keys them by the fresh, globally unique commit timestamp).
    pub fn commit_with(
        &self,
        txn: &mut Txn<K, V>,
        extra: impl FnOnce(Timestamp) -> Vec<(K, Option<V>)> + Send + 'static,
    ) -> CatalogResult<CommitOutcome> {
        self.commit_with_prepared(txn, || Ok(()), extra)
    }

    /// [`MvccStore::commit_with`] with a *prepare* stage between validation
    /// and sequencing: `prepare` runs on the committing thread, under the
    /// commit lock if the commit took it, after first-committer-wins
    /// validation has passed but before a commit timestamp exists. An
    /// UPDATE's prepare therefore holds the lock for a store round trip,
    /// and an INSERT's holds nothing. Polaris joins its
    /// pipelined manifest uploads here — a validation conflict skips the
    /// join (the upload is discarded instead), and a prepare failure
    /// aborts without consuming a timestamp, so the commit clock stays
    /// dense either way.
    pub fn commit_with_prepared(
        &self,
        txn: &mut Txn<K, V>,
        prepare: impl FnOnce() -> CatalogResult<()>,
        extra: impl FnOnce(Timestamp) -> Vec<(K, Option<V>)> + Send + 'static,
    ) -> CatalogResult<CommitOutcome> {
        self.commit_validated(txn, prepare, Some(extra))
    }

    /// The commit protocol. `extra` is `None` for a commit that has none
    /// *and* buffered nothing ([`MvccStore::commit`]): validated like any
    /// other, it then takes no place in the commit order.
    fn commit_validated(
        &self,
        txn: &mut Txn<K, V>,
        prepare: impl FnOnce() -> CatalogResult<()>,
        extra: Option<impl FnOnce(Timestamp) -> Vec<(K, Option<V>)> + Send + 'static>,
    ) -> CatalogResult<CommitOutcome> {
        self.ensure_active(txn)?;
        // Only a commit with something to validate takes the commit lock:
        // an empty footprint (read-only SI commit, or a pure insert whose
        // manifest rows arrive via `extra`) skips locking entirely. The
        // read set is empty unless the transaction is Serializable. Held
        // until this function returns, on success and conflict paths
        // alike; the hold span, dropped with it, records only holds of a
        // lock that was taken.
        let _lock = (txn.writes.len() > 0 || !txn.reads.is_empty()).then(|| {
            let mut lock_span = self.meter.tracer.span("catalog.lock_acquire");
            lock_span.attr("txn", txn.id.0);
            let blocked = Instant::now();
            let guard = self.commit_lock.lock();
            let waited_ns = blocked.elapsed().as_nanos() as u64;
            self.meter.commit_lock_wait.record_ns(waited_ns);
            polaris_obs::alloc::attribute_wait(waited_ns);
            (guard, self.meter.commit_lock_hold.span())
        });
        {
            let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::TxnValidate);
            let mut validate_span = self.meter.tracer.span("catalog.validate");
            validate_span.attr("write_set", txn.writes.len());
            // First committer wins: any version of a written key newer
            // than our snapshot means a concurrent transaction got there
            // first; under Serializable, the same goes for a read key.
            // The commit lock (held above) is what freezes those keys
            // against concurrent committers.
            let conflict = {
                let rows = self.rows.read();
                let newer = |key: &&K| Self::newest_ts(&rows, key) > txn.snapshot;
                match txn.writes.keys().find(newer) {
                    Some(key) => Some((
                        CatalogError::WriteWriteConflict {
                            key: format_key(key),
                        },
                        &self.meter.ww_conflicts,
                        "ww_conflict",
                    )),
                    None => txn.reads.iter().find(newer).map(|key| {
                        (
                            CatalogError::SerializationFailure {
                                key: format_key(key),
                            },
                            &self.meter.serialization_failures,
                            "serialization_failure",
                        )
                    }),
                }
            };
            if let Some((err, counter, outcome)) = conflict {
                self.finish(txn, TxnStatus::Aborted);
                counter.inc();
                validate_span.attr("outcome", outcome);
                return Err(err);
            }
            validate_span.attr("outcome", "ok");
        }
        self.probe("commit.validated");
        // The prepare stage: validation has passed (no conflicting commit
        // can slip in — the commit lock is held), but no timestamp is
        // drawn yet, so failing here leaves the commit clock untouched.
        if let Err(e) = prepare() {
            self.finish(txn, TxnStatus::Aborted);
            self.meter.aborts.inc();
            return Err(e);
        }
        // The sequencer stage: draw, install and publish as one atomic
        // step — directly, or through the group-commit queue when
        // batching is enabled. Either way commit timestamps stay dense,
        // allocation-ordered and publication-ordered: a snapshot can
        // never observe timestamp `t` while a commit below `t` is still
        // installing (subsystems keyed by manifest sequence — snapshot
        // caches, checkpoints, GC — rely on that contiguity), and a
        // committer's next snapshot always covers its own commit. Lock
        // order commit lock -> (queue |) sequencer is uniform, so no
        // deadlock; a queued entry keeps the commit lock if it took it,
        // so batch members are pairwise disjoint by construction.
        let sequencer_entered = Instant::now();
        let max_batch = self.group_commit_max_batch();
        let sequenced = match extra {
            // Nothing to install: no timestamp drawn, nothing logged.
            None => Ok(txn.snapshot),
            // Unbatched: a batch of one, built on the stack from the
            // transaction's own write buffer. The storage goes back to the
            // transaction (and from there to the scratch pool at `finish`).
            Some(extra) if max_batch <= 1 => {
                let mut member = [CommitLogRecord::new(txn)];
                let sequenced = self.sequence(&mut member, std::iter::once(extra));
                let [member] = member;
                txn.writes.entries = member.writes;
                sequenced.map(|()| member.commit_ts)
            }
            Some(extra) => self.sequence_grouped(txn, Box::new(extra), max_batch),
        };
        self.meter
            .sequencer_wait
            .record_ns(sequencer_entered.elapsed().as_nanos() as u64);
        match sequenced {
            Ok(commit_ts) => {
                self.finish(txn, TxnStatus::Committed);
                self.meter.commits.inc();
                Ok(CommitOutcome { commit_ts })
            }
            Err(e) => {
                // Commit-log failure: the batch (this commit included)
                // aborted wholesale before anything became visible.
                // `finish` discards the buffered writes *and* the read
                // set, like every terminal transition.
                self.finish(txn, TxnStatus::Aborted);
                self.meter.commit_log_failures.inc();
                Err(e)
            }
        }
    }

    /// The grouped sequencer path: enqueue the validated commit, then
    /// either lead (drain a batch through one sequencer section) or
    /// follow (park on the group condvar until a leader publishes us).
    /// A commit lock taken at validation stays held by the enqueuing
    /// thread throughout, so no other transaction can validate while we're
    /// queued.
    fn sequence_grouped(
        &self,
        txn: &mut Txn<K, V>,
        extra: ExtraFn<K, V>,
        max_batch: usize,
    ) -> CatalogResult<Timestamp> {
        let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::SequencerPublish);
        let slot = Arc::new(CommitSlot(StdMutex::new(None)));
        let window = Duration::from_micros(self.group_window_us.load(Ordering::SeqCst));
        let mut state = lock_unpoisoned(&self.group.state);
        state.pending.push_back(BatchEntry {
            member: CommitLogRecord::new(txn),
            extra,
            slot: Arc::clone(&slot),
        });
        // A leader may be window-waiting for the queue to fill.
        self.group.cv.notify_all();
        loop {
            if let Some(outcome) = lock_unpoisoned(&slot.0).take() {
                return outcome;
            }
            if !state.leader_active && !state.pending.is_empty() {
                // Become the leader. Wait out the batching window (unless
                // the batch is already full), then drain FIFO.
                state.leader_active = true;
                if state.pending.len() < max_batch && !window.is_zero() {
                    let deadline = Instant::now() + window;
                    while state.pending.len() < max_batch {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let (guard, timeout) = self
                            .group
                            .cv
                            .wait_timeout(state, deadline - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        state = guard;
                        if timeout.timed_out() {
                            break;
                        }
                    }
                }
                let n = state.pending.len().min(max_batch);
                let mut members = Vec::with_capacity(n);
                let mut extras = Vec::with_capacity(n);
                let mut slots = Vec::with_capacity(n);
                for entry in state.pending.drain(..n) {
                    members.push(entry.member);
                    extras.push(entry.extra);
                    slots.push(entry.slot);
                }
                drop(state);
                let sequenced = self.sequence(&mut members, extras);
                // Outcome slots fill only *after* the watermark published,
                // so by the time a follower observes its timestamp the
                // commit is fully visible. The members' write storage came
                // from their write sets; hand it to the pool — installed or
                // aborted — so batching keeps the store warm.
                for (mut member, slot) in members.into_iter().zip(slots) {
                    *lock_unpoisoned(&slot.0) = Some(sequenced.clone().map(|()| member.commit_ts));
                    member.writes.clear();
                    self.recycle(TxnScratch {
                        writes: member.writes,
                        reads: HashSet::new(),
                    });
                }
                state = lock_unpoisoned(&self.group.state);
                state.leader_active = false;
                // Wake followers to collect their outcomes (and the next
                // leader, if the queue refilled while we sequenced).
                self.group.cv.notify_all();
            } else {
                let parked = Instant::now();
                state = self
                    .group
                    .cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                let waited_ns = parked.elapsed().as_nanos() as u64;
                self.meter.group_commit_wait.record_ns(waited_ns);
                polaris_obs::alloc::attribute_wait(waited_ns);
            }
        }
    }

    /// The global sequencer section, for a batch of one or of many: draw
    /// one dense run of timestamps, compute every member's extra writes,
    /// make the batch durable with one commit-log write, install, and
    /// publish the whole run with one store to the watermark.
    ///
    /// `extras` yields one closure per member, in member order. They run
    /// before the commit-log hook so the log record carries each
    /// transaction's *complete* effect; they are pure constructors (they
    /// build manifest rows keyed by the fresh timestamp), so running them
    /// on the abort path is harmless. On `Err` the hook refused the batch:
    /// nothing was installed and no timestamp was consumed, so the clock
    /// stays dense for the next batch.
    fn sequence(
        &self,
        members: &mut [CommitLogRecord<K, V>],
        extras: impl IntoIterator<Item = impl FnOnce(Timestamp) -> Vec<(K, Option<V>)>>,
    ) -> CatalogResult<()> {
        let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::SequencerPublish);
        let _sequencer = self.sequencer.lock();
        self.probe("commit.sequencer");
        let base = self.committed.load(Ordering::SeqCst);
        self.meter.group_batch_size.record_ns(members.len() as u64);
        for (i, (member, extra)) in members.iter_mut().zip(extras).enumerate() {
            member.commit_ts = Timestamp(base + 1 + i as u64);
            member.extra = extra(member.commit_ts);
        }
        if let Some(hook) = self.commit_log.read().clone() {
            hook(members).map_err(|detail| CatalogError::CommitLogFailure { detail })?;
        }
        self.probe("commit.logged");
        for member in members.iter_mut() {
            self.install_at(member.commit_ts, &mut member.writes, &mut member.extra);
        }
        self.probe("commit.installed");
        self.committed
            .store(base + members.len() as u64, Ordering::SeqCst);
        self.probe("commit.published");
        Ok(())
    }

    /// Install one commit's writes under `commit_ts`, draining both
    /// vectors in place (their backing storage returns to the caller —
    /// and from there to the scratch pool). The commit stays invisible
    /// while partially installed: `commit_ts` is above the watermark until
    /// the caller publishes it.
    fn install_at(
        &self,
        commit_ts: Timestamp,
        writes: &mut Vec<(K, Option<V>)>,
        extra_writes: &mut Vec<(K, Option<V>)>,
    ) {
        let mut install_span = self.meter.tracer.span("catalog.install");
        install_span.attr("commit_ts", commit_ts.0);
        install_span.attr("extra_writes", extra_writes.len());
        let mut rows = self.rows.write();
        for (key, value) in writes.drain(..).chain(extra_writes.drain(..)) {
            rows.entry(key).or_default().push(Version {
                ts: commit_ts,
                value,
            });
        }
    }

    /// Commit without extra writes.
    ///
    /// A transaction that buffered nothing changes nothing, so it takes no
    /// place in the commit order: its read set is still validated under
    /// `Serializable`, but it draws no timestamp, reaches neither the
    /// sequencer nor the commit-log hook, and reports its snapshot as
    /// [`CommitOutcome::commit_ts`]. The clock therefore advances by
    /// exactly the number of committed *writing* transactions.
    pub fn commit(&self, txn: &mut Txn<K, V>) -> CatalogResult<CommitOutcome> {
        let no_extra = |_| Vec::new();
        let extra = (txn.writes.len() > 0).then_some(no_extra);
        self.commit_validated(txn, || Ok(()), extra)
    }

    /// Roll back: buffered writes *and* the tracked read set are
    /// discarded; nothing was ever visible.
    pub fn abort(&self, txn: &mut Txn<K, V>) {
        self.finish(txn, TxnStatus::Aborted);
        self.meter.aborts.inc();
    }

    fn newest_ts(rows: &Rows<K, V>, key: &K) -> Timestamp {
        rows.get(key)
            .and_then(|v| v.last())
            .map_or(Timestamp(0), |v| v.ts)
    }

    fn ensure_active(&self, txn: &Txn<K, V>) -> CatalogResult<()> {
        if txn.status != TxnStatus::Active {
            return Err(CatalogError::TxnNotActive { txn: txn.id.0 });
        }
        Ok(())
    }

    /// Smallest snapshot timestamp among active transactions, if any — the
    /// GC watermark of §5.3.
    pub fn min_active_snapshot(&self) -> Option<Timestamp> {
        self.active.lock().values().map(|a| a.snapshot).min()
    }

    /// The longest-running active transaction: `(id, wall-clock age)`.
    /// This is the stall watchdog's GC-watermark probe — a transaction
    /// that has been active past the deadline is pinning `vacuum` and
    /// snapshot retention for the whole engine.
    pub fn oldest_active(&self) -> Option<(TxnId, Duration)> {
        self.active
            .lock()
            .iter()
            .map(|(id, a)| (*id, a.since.elapsed()))
            .max_by_key(|(_, age)| *age)
    }

    /// Entries parked in the group-commit queue right now (validated
    /// commits waiting for a leader to drain them through the sequencer).
    /// A depth that stays positive across watchdog ticks means the leader
    /// is stuck — e.g. a commit-log hook that blocks or fails forever.
    pub fn group_queue_depth(&self) -> usize {
        lock_unpoisoned(&self.group.state).pending.len()
    }

    /// Smallest id among active transactions. Files are stamped with their
    /// creating transaction's id; an unreferenced file whose stamp is below
    /// this watermark is guaranteed to belong to a finished (and therefore
    /// aborted) transaction and is safe to delete (§5.3). When no
    /// transaction is active, the next id to be allocated is returned.
    pub fn min_active_txn_id(&self) -> TxnId {
        self.active
            .lock()
            .keys()
            .min()
            .copied()
            .unwrap_or(TxnId(self.next_txn.load(Ordering::SeqCst)))
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Every active transaction as `(id, snapshot ts, wall-clock age)`,
    /// unordered. A point-in-time copy — the returned rows never reference
    /// the live map, so callers can hold them across commits.
    pub fn active_txns(&self) -> Vec<(TxnId, Timestamp, Duration)> {
        self.active
            .lock()
            .iter()
            .map(|(id, a)| (*id, a.snapshot, a.since.elapsed()))
            .collect()
    }

    /// Drop versions superseded before `before` (and tombstones entirely in
    /// the past), keeping at least the newest version of each key. Safe
    /// when `before <= min_active_snapshot()`.
    pub fn vacuum(&self, before: Timestamp) -> usize {
        let mut removed = 0;
        self.rows.write().retain(|_, versions| {
            // Find the newest version <= before: everything older is
            // unreachable by any current or future snapshot.
            if let Some(idx) = versions.iter().rposition(|v| v.ts <= before) {
                removed += idx;
                versions.drain(..idx);
            }
            // A lone tombstone in the past can go entirely.
            if versions.len() == 1 && versions[0].value.is_none() && versions[0].ts <= before {
                removed += 1;
                return false;
            }
            true
        });
        removed
    }

    /// Total number of stored versions (for tests/metrics).
    pub fn version_count(&self) -> usize {
        self.rows.read().values().map(Vec::len).sum()
    }
}

fn format_key<K: std::fmt::Debug>(key: &K) -> String {
    format!("{key:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Bound::{Excluded, Included, Unbounded};

    type Store = MvccStore<String, i64>;

    fn k(s: &str) -> String {
        s.to_owned()
    }

    #[test]
    fn committed_writes_become_visible() {
        let s = Store::new();
        let mut t1 = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t1, k("a"), 1).unwrap();
        // invisible to others before commit
        let mut t2 = s.begin(IsolationLevel::Snapshot);
        assert_eq!(s.read(&mut t2, &k("a")).unwrap(), None);
        s.commit(&mut t1).unwrap();
        // still invisible to t2 (snapshot taken before commit)
        assert_eq!(s.read(&mut t2, &k("a")).unwrap(), None);
        // visible to a new transaction
        let mut t3 = s.begin(IsolationLevel::Snapshot);
        assert_eq!(s.read(&mut t3, &k("a")).unwrap(), Some(1));
    }

    #[test]
    fn own_writes_visible_immediately() {
        let s = Store::new();
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, k("a"), 7).unwrap();
        assert_eq!(s.read(&mut t, &k("a")).unwrap(), Some(7));
        s.delete(&mut t, k("a")).unwrap();
        assert_eq!(s.read(&mut t, &k("a")).unwrap(), None);
    }

    #[test]
    fn first_committer_wins() {
        let s = Store::new();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        s.write(&mut setup, k("x"), 0).unwrap();
        s.commit(&mut setup).unwrap();

        let mut t1 = s.begin(IsolationLevel::Snapshot);
        let mut t2 = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t1, k("x"), 1).unwrap();
        s.write(&mut t2, k("x"), 2).unwrap();
        s.commit(&mut t1).unwrap();
        let err = s.commit(&mut t2).unwrap_err();
        assert!(matches!(err, CatalogError::WriteWriteConflict { .. }));
        assert_eq!(t2.status(), TxnStatus::Aborted);
        // winner's value endures
        let mut t3 = s.begin(IsolationLevel::Snapshot);
        assert_eq!(s.read(&mut t3, &k("x")).unwrap(), Some(1));
    }

    #[test]
    fn disjoint_writes_do_not_conflict() {
        let s = Store::new();
        let mut t1 = s.begin(IsolationLevel::Snapshot);
        let mut t2 = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t1, k("a"), 1).unwrap();
        s.write(&mut t2, k("b"), 2).unwrap();
        s.commit(&mut t1).unwrap();
        s.commit(&mut t2).unwrap();
    }

    #[test]
    fn snapshot_reads_are_repeatable() {
        let s = Store::new();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        s.write(&mut setup, k("a"), 1).unwrap();
        s.commit(&mut setup).unwrap();

        let mut reader = s.begin(IsolationLevel::Snapshot);
        assert_eq!(s.read(&mut reader, &k("a")).unwrap(), Some(1));
        let mut writer = s.begin(IsolationLevel::Snapshot);
        s.write(&mut writer, k("a"), 2).unwrap();
        s.commit(&mut writer).unwrap();
        // non-repeatable read anomaly prevented
        assert_eq!(s.read(&mut reader, &k("a")).unwrap(), Some(1));
    }

    #[test]
    fn rcsi_sees_latest_committed() {
        let s = Store::new();
        let mut reader = s.begin(IsolationLevel::ReadCommittedSnapshot);
        assert_eq!(s.read(&mut reader, &k("a")).unwrap(), None);
        let mut writer = s.begin(IsolationLevel::Snapshot);
        s.write(&mut writer, k("a"), 5).unwrap();
        s.commit(&mut writer).unwrap();
        assert_eq!(s.read(&mut reader, &k("a")).unwrap(), Some(5));
    }

    #[test]
    fn serializable_detects_write_after_read() {
        let s = Store::new();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        s.write(&mut setup, k("a"), 1).unwrap();
        s.write(&mut setup, k("b"), 1).unwrap();
        s.commit(&mut setup).unwrap();

        // Classic write-skew shape: t1 reads a writes b; t2 reads b writes a.
        let mut t1 = s.begin(IsolationLevel::Serializable);
        let mut t2 = s.begin(IsolationLevel::Serializable);
        let a = s.read(&mut t1, &k("a")).unwrap().unwrap();
        let b = s.read(&mut t2, &k("b")).unwrap().unwrap();
        s.write(&mut t1, k("b"), a + 10).unwrap();
        s.write(&mut t2, k("a"), b + 10).unwrap();
        s.commit(&mut t1).unwrap();
        let err = s.commit(&mut t2).unwrap_err();
        assert!(matches!(err, CatalogError::SerializationFailure { .. }));
    }

    #[test]
    fn write_skew_allowed_under_si() {
        // Same shape as above succeeds under plain SI — documenting the
        // §4.4.2 caveat that SI permits non-serializable interleavings.
        let s = Store::new();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        s.write(&mut setup, k("a"), 1).unwrap();
        s.write(&mut setup, k("b"), 1).unwrap();
        s.commit(&mut setup).unwrap();

        let mut t1 = s.begin(IsolationLevel::Snapshot);
        let mut t2 = s.begin(IsolationLevel::Snapshot);
        let _ = s.read(&mut t1, &k("a")).unwrap();
        let _ = s.read(&mut t2, &k("b")).unwrap();
        s.write(&mut t1, k("b"), 99).unwrap();
        s.write(&mut t2, k("a"), 99).unwrap();
        s.commit(&mut t1).unwrap();
        s.commit(&mut t2).unwrap(); // write sets disjoint: SI allows it
    }

    #[test]
    fn scan_merges_snapshot_and_own_writes() {
        let s = Store::new();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        for (key, v) in [("a", 1i64), ("b", 2), ("c", 3)] {
            s.write(&mut setup, k(key), v).unwrap();
        }
        s.commit(&mut setup).unwrap();

        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, k("b"), 20).unwrap(); // overwrite
        s.delete(&mut t, k("c")).unwrap(); // delete
        s.write(&mut t, k("d"), 4).unwrap(); // insert
        let all = s.scan(&mut t, Unbounded, Unbounded).unwrap();
        assert_eq!(all, vec![(k("a"), 1), (k("b"), 20), (k("d"), 4)]);
        let sub = s
            .scan(&mut t, Included(&k("b")), Excluded(&k("d")))
            .unwrap();
        assert_eq!(sub, vec![(k("b"), 20)]);
    }

    #[test]
    fn phantom_prevention_under_si_scans() {
        let s = Store::new();
        let mut reader = s.begin(IsolationLevel::Snapshot);
        assert!(s
            .scan(&mut reader, Unbounded, Unbounded)
            .unwrap()
            .is_empty());
        let mut writer = s.begin(IsolationLevel::Snapshot);
        s.write(&mut writer, k("new"), 1).unwrap();
        s.commit(&mut writer).unwrap();
        // the committed row is not a phantom for the old snapshot
        assert!(s
            .scan(&mut reader, Unbounded, Unbounded)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn commit_with_extra_writes_at_commit_ts() {
        let s = Store::new();
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, k("w"), 1).unwrap();
        let outcome = s
            .commit_with(&mut t, |ts| {
                vec![(format!("manifest@{}", ts.0), Some(ts.0 as i64))]
            })
            .unwrap();
        let mut r = s.begin(IsolationLevel::Snapshot);
        let key = format!("manifest@{}", outcome.commit_ts.0);
        assert_eq!(
            s.read(&mut r, &key).unwrap(),
            Some(outcome.commit_ts.0 as i64)
        );
    }

    #[test]
    fn abort_discards_everything() {
        let s = Store::new();
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, k("a"), 1).unwrap();
        s.abort(&mut t);
        assert!(matches!(
            s.read(&mut t, &k("a")),
            Err(CatalogError::TxnNotActive { .. })
        ));
        let mut r = s.begin(IsolationLevel::Snapshot);
        assert_eq!(s.read(&mut r, &k("a")).unwrap(), None);
    }

    #[test]
    fn operations_on_finished_txn_fail() {
        let s = Store::new();
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.commit(&mut t).unwrap();
        assert!(s.write(&mut t, k("a"), 1).is_err());
        assert!(s.commit(&mut t).is_err());
    }

    #[test]
    fn min_active_snapshot_tracks_oldest() {
        let s = Store::new();
        assert_eq!(s.min_active_snapshot(), None);
        let mut t1 = s.begin(IsolationLevel::Snapshot);
        let mut bump = s.begin(IsolationLevel::Snapshot);
        s.write(&mut bump, k("z"), 1).unwrap();
        s.commit(&mut bump).unwrap();
        let t2 = s.begin(IsolationLevel::Snapshot);
        assert_eq!(s.min_active_snapshot(), Some(t1.snapshot));
        s.abort(&mut t1);
        assert_eq!(s.min_active_snapshot(), Some(t2.snapshot));
        assert_eq!(s.active_count(), 1);
    }

    #[test]
    fn begin_at_reads_historical_snapshot() {
        let s = Store::new();
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, k("v"), 1).unwrap();
        let first = s.commit(&mut t).unwrap().commit_ts;
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, k("v"), 2).unwrap();
        s.commit(&mut t).unwrap();
        let mut hist = s.begin_at(first);
        assert_eq!(s.read(&mut hist, &k("v")).unwrap(), Some(1));
        let mut hist0 = s.begin_at(Timestamp(0));
        assert_eq!(s.read(&mut hist0, &k("v")).unwrap(), None);
    }

    #[test]
    fn vacuum_drops_superseded_versions() {
        let s = Store::new();
        for i in 0..5i64 {
            let mut t = s.begin(IsolationLevel::Snapshot);
            s.write(&mut t, k("hot"), i).unwrap();
            s.commit(&mut t).unwrap();
        }
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.delete(&mut t, k("dead")).unwrap(); // tombstone for nonexistent is fine
        s.commit(&mut t).unwrap();
        assert_eq!(s.version_count(), 6);
        let removed = s.vacuum(s.now());
        assert_eq!(removed, 5); // 4 old "hot" versions + dead tombstone
        let mut r = s.begin(IsolationLevel::Snapshot);
        assert_eq!(s.read(&mut r, &k("hot")).unwrap(), Some(4));
    }

    #[test]
    fn vacuum_respects_watermark() {
        let s = Store::new();
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, k("a"), 1).unwrap();
        let ts1 = s.commit(&mut t).unwrap().commit_ts;
        let mut old_reader = s.begin(IsolationLevel::Snapshot);
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, k("a"), 2).unwrap();
        s.commit(&mut t).unwrap();
        // vacuum only up to the active reader's snapshot
        s.vacuum(s.min_active_snapshot().unwrap());
        assert_eq!(s.read(&mut old_reader, &k("a")).unwrap(), Some(1));
        let _ = ts1;
    }

    #[test]
    fn commit_log_records_carry_full_effect() {
        let s = Store::new();
        type LoggedEntry = (u64, u64, Vec<(String, Option<i64>)>);
        let logged: Arc<StdMutex<Vec<LoggedEntry>>> = Arc::new(StdMutex::new(Vec::new()));
        {
            let logged = Arc::clone(&logged);
            s.set_commit_log(Some(Arc::new(move |records| {
                for r in records {
                    let mut writes: Vec<(String, Option<i64>)> =
                        r.writes.iter().map(|(key, v)| (key.clone(), *v)).collect();
                    writes.extend(r.extra.iter().cloned());
                    logged
                        .lock()
                        .unwrap()
                        .push((r.txn.0, r.commit_ts.0, writes));
                }
                Ok(())
            })));
        }
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, k("w"), 5).unwrap();
        let outcome = s
            .commit_with(&mut t, |ts| vec![(format!("m@{}", ts.0), Some(9))])
            .unwrap();
        let entries = logged.lock().unwrap();
        assert_eq!(entries.len(), 1);
        let (txn, ts, ref writes) = entries[0];
        assert_eq!((txn, ts), (t.id.0, outcome.commit_ts.0));
        assert_eq!(
            *writes,
            vec![
                (k("w"), Some(5)),
                (format!("m@{}", outcome.commit_ts.0), Some(9))
            ]
        );
    }

    #[test]
    fn every_terminal_transition_clears_both_sets() {
        // Regression: abort and the commit-log-failure path used to clear
        // `writes` but leak `reads` until drop — a correctness bug for
        // Serializable lifecycles and a poison pill for pooled reuse.
        let s = Store::new();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        s.write(&mut setup, k("a"), 1).unwrap();
        s.write(&mut setup, k("b"), 1).unwrap();
        s.commit(&mut setup).unwrap();
        assert_eq!((setup.write_count(), setup.read_count()), (0, 0));

        // User abort.
        let mut t = s.begin(IsolationLevel::Serializable);
        let _ = s.read(&mut t, &k("a")).unwrap();
        s.write(&mut t, k("b"), 2).unwrap();
        assert_eq!((t.write_count(), t.read_count()), (1, 1));
        s.abort(&mut t);
        assert_eq!((t.write_count(), t.read_count()), (0, 0));

        // Write-write conflict.
        let mut loser = s.begin(IsolationLevel::Serializable);
        let _ = s.read(&mut loser, &k("a")).unwrap();
        s.write(&mut loser, k("b"), 3).unwrap();
        let mut winner = s.begin(IsolationLevel::Snapshot);
        s.write(&mut winner, k("b"), 4).unwrap();
        s.commit(&mut winner).unwrap();
        assert!(s.commit(&mut loser).is_err());
        assert_eq!((loser.write_count(), loser.read_count()), (0, 0));

        // Serialization failure (read-set conflict, disjoint writes).
        let mut reader = s.begin(IsolationLevel::Serializable);
        let _ = s.read(&mut reader, &k("a")).unwrap();
        s.write(&mut reader, k("c"), 5).unwrap();
        let mut bump = s.begin(IsolationLevel::Snapshot);
        s.write(&mut bump, k("a"), 6).unwrap();
        s.commit(&mut bump).unwrap();
        assert!(matches!(
            s.commit(&mut reader),
            Err(CatalogError::SerializationFailure { .. })
        ));
        assert_eq!((reader.write_count(), reader.read_count()), (0, 0));

        // Prepare failure.
        let mut p = s.begin(IsolationLevel::Serializable);
        let _ = s.read(&mut p, &k("a")).unwrap();
        s.write(&mut p, k("d"), 7).unwrap();
        let err = s
            .commit_with_prepared(
                &mut p,
                || {
                    Err(CatalogError::CommitLogFailure {
                        detail: "prepare refused".into(),
                    })
                },
                |_| Vec::new(),
            )
            .unwrap_err();
        assert!(matches!(err, CatalogError::CommitLogFailure { .. }));
        assert_eq!((p.write_count(), p.read_count()), (0, 0));

        // Commit-log failure.
        s.set_commit_log(Some(Arc::new(|_| Err("log down".to_owned()))));
        let mut l = s.begin(IsolationLevel::Serializable);
        let _ = s.read(&mut l, &k("a")).unwrap();
        s.write(&mut l, k("e"), 8).unwrap();
        assert!(matches!(
            s.commit(&mut l),
            Err(CatalogError::CommitLogFailure { .. })
        ));
        assert_eq!((l.write_count(), l.read_count()), (0, 0));
        s.set_commit_log(None);

        // And the aborted-leaves-no-trace half: none of those keys exist.
        let mut r = s.begin(IsolationLevel::Snapshot);
        for key in ["c", "d", "e"] {
            assert_eq!(s.read(&mut r, &k(key)).unwrap(), None, "{key}");
        }
    }

    #[test]
    fn pooled_txn_reuse_is_clean_across_lifecycles() {
        // Churn enough transactions through the pool that later begins
        // provably reuse retired scratch, then check reused contexts
        // behave exactly like fresh ones.
        let s = Store::new();
        for i in 0..100i64 {
            let mut t = s.begin(IsolationLevel::Serializable);
            let _ = s.read(&mut t, &k("warm")).unwrap();
            s.write(&mut t, k("warm"), i).unwrap();
            if i % 3 == 0 {
                s.abort(&mut t);
            } else {
                let _ = s.commit(&mut t);
            }
        }
        // A reused context starts empty: no phantom reads or writes.
        let mut t = s.begin(IsolationLevel::Serializable);
        assert_eq!((t.write_count(), t.read_count()), (0, 0));
        // And conflict detection still keys off this txn's state only.
        s.write(&mut t, k("fresh"), 1).unwrap();
        s.commit(&mut t).unwrap();
    }

    #[test]
    fn concurrent_commit_stress() {
        use std::sync::Arc;
        let s = Arc::new(Store::new());
        let mut setup = s.begin(IsolationLevel::Snapshot);
        s.write(&mut setup, k("counter"), 0).unwrap();
        s.commit(&mut setup).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut committed = 0;
                    for _ in 0..50 {
                        let mut t = s.begin(IsolationLevel::Snapshot);
                        let v = s.read(&mut t, &k("counter")).unwrap().unwrap();
                        s.write(&mut t, k("counter"), v + 1).unwrap();
                        if s.commit(&mut t).is_ok() {
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();
        let total: i64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        // Lost updates are impossible: the counter equals the number of
        // successful commits exactly.
        let mut r = s.begin(IsolationLevel::Snapshot);
        assert_eq!(s.read(&mut r, &k("counter")).unwrap(), Some(total));
    }
}
