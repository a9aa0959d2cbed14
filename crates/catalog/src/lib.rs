//! # polaris-catalog
//!
//! The SQL-DB stand-in: a multi-version concurrency-control store with
//! Snapshot Isolation, hosting the Polaris system catalog.
//!
//! In the paper, the SQL Front End manages every user transaction as a SQL
//! DB transaction with Snapshot Isolation over two new catalog tables
//! (§3.1, §4.1):
//!
//! * **Manifests** — `(TableId, ManifestFileName, SequenceId, TxnId)` rows,
//!   one per (committed transaction × modified table). The visible subset
//!   of this table *is* a transaction's snapshot.
//! * **WriteSets** — rows upserted at commit for every table (or data
//!   file, §4.4.1) a transaction updated/deleted. First-committer-wins on
//!   these rows under SI is the entire write-write conflict check.
//!
//! This crate reproduces exactly that mechanism:
//!
//! * [`MvccStore`] — generic versioned key-value store with
//!   [`IsolationLevel::Snapshot`] (default), `ReadCommittedSnapshot` and
//!   `Serializable` modes, first-committer-wins validation, and one
//!   commit lock standing in for §4.1.2 step 2's serialization point.
//! * [`Catalog`] — the typed system-catalog API on top: logical table
//!   metadata, Manifests, WriteSets, Checkpoints, and the transaction
//!   registry used by garbage collection (§5.3).
//!
//! # Concurrency model
//!
//! Readers never block: reads resolve against immutable versions at the
//! transaction's snapshot timestamp, guarded only by a short `RwLock` read
//! acquisition on the one versioned-row map. Writers commit in two phases:
//!
//! 1. **Validation under the commit lock.** A commit with something to
//!    validate — a non-empty write set, or a non-empty read set under
//!    `Serializable` — takes the one commit lock and runs
//!    first-committer-wins under it, then its prepare stage (Polaris
//!    publishes its manifest blobs there). A commit with an empty
//!    footprint — a read-only SI commit, or an INSERT, whose manifest rows
//!    arrive as extra writes at the commit point — takes no lock.
//! 2. **Serial publication.** A short global sequencer section draws the
//!    next commit timestamp, installs all of the transaction's versions,
//!    and publishes them as one atomic step. The commit clock is
//!    therefore dense and publication-ordered: if timestamp `n` is
//!    visible, so is everything below `n` — the contiguity that snapshot
//!    caches, checkpoint cutoffs and GC retention arithmetic rely on.
//!
//! UPDATE, DELETE and DDL commits therefore validate one at a time, even
//! on different tables. `catalog.commit_lock_hold_ns` records one sample
//! per commit that took the lock, and `catalog.commit_lock_wait_ns` the
//! time spent blocked acquiring it.

mod catalog;
mod error;
mod mvcc;
pub mod wal;

pub use catalog::{
    Catalog, CatalogCommitLog, CatalogImage, CatalogKey, CatalogTxn, CatalogValue, CheckpointRow,
    ManifestRow, TableId, TableMeta,
};
pub use error::{CatalogError, CatalogResult};
pub use mvcc::{
    CommitLog, CommitLogRecord, CommitOutcome, CommitProbe, ConflictGranularity, IsolationLevel,
    MvccKey, MvccStore, Timestamp, Txn, TxnId, TxnStatus,
};
