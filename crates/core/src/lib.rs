//! # polaris-core
//!
//! The paper's primary contribution: a complete transaction manager over
//! the Polaris distributed computation platform — general CRUD
//! transactions with **Snapshot Isolation** over log-structured tables.
//!
//! The crate wires the substrates together exactly as §3–§6 describe:
//!
//! * [`PolarisEngine`] — the running system: SQL FE (catalog + compiler),
//!   the DCP compute pool, the object store, and per-table BE snapshot
//!   caches. State never crosses component boundaries: the catalog holds
//!   logical metadata and transactional state, OneLake holds data and
//!   physical metadata, BEs hold only caches.
//! * [`Session`] / [`Transaction`] — the user surface. Every statement —
//!   read or write — compiles in the FE to a task DAG and executes on the
//!   pool; writes stage manifest blocks (invisible until listed, §3.2),
//!   and commit publishes each dirty table's block list in one atomic
//!   `commit_block_list` — once the optimistic validation of §4.1.2 has
//!   passed, before the group-commit batcher sequences it.
//! * [`sto`] — the System Task Orchestrator: compaction (§5.1), manifest
//!   checkpointing (§5.2), garbage collection (§5.3) and async Delta
//!   publishing (§5.4).
//! * [`recovery`] — the durable commit log: sequencer batches framed into
//!   block-blob WAL segments before they publish, periodic catalog
//!   checkpoints, and the [`PolarisEngine::open`] replay that rebuilds
//!   the FE after a crash (torn-tail rule, dense-clock invariant).
//! * [`lineage`] — Query As Of, zero-copy Clone As Of, and point-in-time
//!   Restore (§6).

mod config;
mod engine;
mod error;
pub mod lineage;
mod read;
pub mod recovery;
mod schema_json;
mod session;
pub mod sto;
pub mod system_tables;
mod telemetry;
mod txn;

pub use config::EngineConfig;
pub use engine::PolarisEngine;
pub use error::{PolarisError, PolarisResult};
pub use read::QueryResult;
pub use recovery::{CommitLogWriter, RecoveryReport};
pub use session::{Session, StatementOutcome};
pub use telemetry::HEALTH_QUERIES;
pub use txn::Transaction;

// Re-export the vocabulary types users need at the API boundary.
pub use polaris_catalog::{ConflictGranularity, IsolationLevel, TableId};
pub use polaris_columnar::{DataType, Field, RecordBatch, Schema, Value};
pub use polaris_lst::SequenceId;
pub use polaris_obs::{
    MetricsRegistry, MetricsSnapshot, Phase, PhaseTotals, QueryProfile, SlowEntry, SlowLog,
    TxnProfile, ValidationOutcome,
};
