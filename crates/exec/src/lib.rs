//! # polaris-exec
//!
//! The SQL Server BE stand-in: vectorized query execution over
//! log-structured tables.
//!
//! In Polaris, each back-end node runs a SQL Server instance that executes
//! a template query over the data cells assigned to its task (§2.3, §3.3).
//! This crate provides that single-node engine:
//!
//! * [`Expr`] — scalar expressions with SQL NULL semantics, plus
//!   stats-based row-group pruning ([`Expr::may_match`]).
//! * [`ops`] — batch operators: filter, project, hash aggregate, hash
//!   join, sort, limit.
//! * [`scan`] — snapshot scans: fetch columnar files, prune on statistics,
//!   mask deleted rows through delete vectors (merge-on-read, §2.1).
//! * [`write`](mod@write) — the write path: encode batches into immutable data files
//!   and compute delete vectors for predicates.
//! * [`cell`] — data cells: the `(file, row group)` units the DCP assigns
//!   to tasks, partitioned by distribution.
//! * [`system`] — read-only virtual tables under `polaris.*`: the
//!   [`SystemTableProvider`] contract and its registry.

pub mod cell;
mod error;
mod expr;
pub mod morsel;
pub mod ops;
pub mod scan;
pub mod system;
pub mod write;

pub use cell::{cells_of_snapshot, partition_cells, Cell};
pub use error::{ExecError, ExecResult};
pub use expr::{AggExpr, AggFunc, BinOp, Expr};
pub use morsel::{plan_file_scan, FileScanPlan, MorselScanOutput, ScanMorsel};
pub use system::{SystemSchema, SystemTableProvider, SYSTEM_SCHEMA};
