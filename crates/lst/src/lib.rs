//! # polaris-lst
//!
//! Log-structured table (LST) layer: the *physical metadata* of Polaris
//! (§2.2, §3.2).
//!
//! A table's state is captured by a chain of immutable **manifest files**,
//! one per committed write transaction, each recording the data files and
//! delete vectors the transaction added or removed. Replaying the chain
//! (optionally starting from a **checkpoint**) reconstructs the table
//! snapshot as of any commit — which is what gives Polaris time travel,
//! cloning and cheap restore (§6).
//!
//! Contents:
//!
//! * [`ManifestAction`] / [`Manifest`] — the log-entry format. Manifests are
//!   runs of self-delimiting binary records so that independently written
//!   *blocks* (one per BE task, §3.2.2) concatenate into a valid manifest —
//!   the property the Block Blob commit protocol depends on.
//! * [`codec`] — the one binary encoding of every blob the engine writes for
//!   itself (data files, manifests, checkpoints, and the catalog's log and
//!   checkpoint payloads), re-exported from `polaris-columnar`, its home;
//!   JSON is left to the published Delta log.
//! * [`TableSnapshot`] — reconstructed state: live data files plus their
//!   delete vectors.
//! * [`TxnDelta`] — a transaction's private, uncommitted changes, overlaid
//!   on the committed snapshot for multi-statement visibility (§3.2.3) and
//!   *reconciled* when later statements obsolete earlier ones.
//! * [`Checkpoint`] — compacted full-state file (§5.2).
//! * [`SnapshotCache`] — incremental snapshot reconstruction cache (§3.2.1).
//! * [`publish`] — async "lake" snapshot export in the Delta format (§5.4).

mod action;
mod cache;
mod checkpoint;
mod delta;
mod error;
mod manifest;
pub mod publish;
mod snapshot;

pub use polaris_columnar::codec;

pub use action::{ColRange, DataFileEntry, DvEntry, ManifestAction, RangeVal};
pub use cache::SnapshotCache;
pub use checkpoint::Checkpoint;
pub use delta::TxnDelta;
pub use error::{LstError, LstResult};
pub use manifest::Manifest;
pub use snapshot::{DataFileState, TableSnapshot};

/// Blob path of transaction `txn`'s manifest for table `table`.
pub fn manifest_path(data_root: &str, txn: u64, table: u64) -> String {
    format!("{data_root}/_log/txn-{txn}-{table}.mf")
}

/// Blob path of the lst checkpoint covering a table through `upto`.
pub fn checkpoint_path(data_root: &str, upto: SequenceId) -> String {
    format!("{data_root}/_ckpt/{:020}.ckpt", upto.0)
}

/// Monotone commit sequence number of a table's manifest chain.
///
/// Assigned by the SQL FE at commit (the `Sequence Id` column of the
/// `Manifests` catalog table, §3.1); defines the logical commit order that
/// snapshots, time travel and checkpoints are all expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SequenceId(pub u64);

impl SequenceId {
    /// The next sequence number.
    pub fn next(self) -> SequenceId {
        SequenceId(self.0 + 1)
    }
}

impl std::fmt::Display for SequenceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seq#{}", self.0)
    }
}
