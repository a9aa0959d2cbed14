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
//!   `Serializable` modes, first-committer-wins validation, and a
//!   *sharded* commit protocol standing in for §4.1.2 step 2's
//!   serialization point.
//! * [`Catalog`] — the typed system-catalog API on top: logical table
//!   metadata, Manifests, WriteSets, Checkpoints, and the transaction
//!   registry used by garbage collection (§5.3).
//!
//! # Concurrency model
//!
//! Readers never block: reads resolve against immutable versions at the
//! transaction's snapshot timestamp, guarded only by short per-shard
//! `RwLock` read acquisitions. Writers commit in two phases:
//!
//! 1. **Parallel validation.** The commit's write-key footprint (plus
//!    read keys under `Serializable`) hashes to a subset of
//!    [`DEFAULT_COMMIT_SHARDS`] commit shards; those shard locks are
//!    taken in ascending index order (total order ⇒ no deadlock) and
//!    first-committer-wins runs under them. Commits with disjoint
//!    footprints — e.g. transactions on different tables, since
//!    [`Catalog`] hashes keys by `TableId` — share no lock and validate
//!    concurrently.
//! 2. **Serial publication.** A short global sequencer section draws the
//!    next commit timestamp, installs all of the transaction's versions,
//!    and publishes them as one atomic step. The commit clock is
//!    therefore dense and publication-ordered: if timestamp `n` is
//!    visible, so is everything below `n` — the contiguity that snapshot
//!    caches, checkpoint cutoffs and GC retention arithmetic rely on.
//!
//! `MvccStore::with_shards(meter, 1)` collapses the protocol back to a
//! single global commit lock (the pre-sharding behaviour) for A/B runs.
//! Per-shard lock-hold histograms (`catalog.commit_lock_hold_ns{shard="i"}`)
//! and the `catalog.commit_shards_acquired` counter expose the footprint
//! behaviour at runtime.

mod catalog;
mod error;
mod mvcc;
pub mod wal;

pub use catalog::{
    Catalog, CatalogCommitLog, CatalogImage, CatalogKey, CatalogTxn, CatalogValue, CheckpointRow,
    ManifestRow, TableId, TableImage, TableMeta,
};
pub use error::{CatalogError, CatalogResult};
pub use mvcc::{
    CommitLog, CommitLogRecord, CommitOutcome, CommitProbe, ConflictGranularity, IsolationLevel,
    MvccKey, MvccStore, Timestamp, Txn, TxnId, TxnStatus, DEFAULT_COMMIT_SHARDS,
};
