//! # polaris-dcp
//!
//! The Polaris Distributed Computation Platform substrate (§1, §3.3, §4.3).
//!
//! Polaris packages data and processing into **tasks** that can be moved
//! across compute nodes and restarted at task level; a scheduler places
//! tasks onto a dynamically changing **topology** of compute nodes and is
//! resilient to node failures. Reads and writes are handled *uniformly*: a
//! write statement is just a set of leaf tasks that return manifest block
//! IDs instead of rows.
//!
//! This crate reproduces those control-plane properties on threads, with
//! the two job shapes the engine sends it:
//!
//! * [`ComputePool`] — a topology of worker nodes, each with a workload
//!   class ([`WorkloadClass`]) and capacity; nodes can join (the elasticity
//!   of §7.1) and leave (or be killed) at any time.
//! * [`WorkflowDag`] — a flat task set (write statements, scan planning,
//!   the block-list publication); [`ComputePool::run_dag`] places tasks
//!   onto free nodes of the right class, retries failed attempts on
//!   surviving nodes, and returns the results in task order.
//! * [`Morsel`] — a scan fragment; [`ComputePool::run_morsels`] drains
//!   morsels through per-lane work-stealing deques with adaptive
//!   splitting.
//! * [`TaskError`] — transient faults (including [`TaskError::NodeLost`])
//!   are retried under one rule for both shapes; fatal errors fail the
//!   job.
//!
//! Workload separation (§4.3) falls out of node classes: write tasks only
//! run on `Write` nodes, so data loading never steals capacity from
//! reporting queries — the property Figure 9 demonstrates.
//!
//! # Concurrency model
//!
//! Each compute node is a thread; a DAG is scheduled by the thread that
//! calls [`ComputePool::run_dag`] — there is no coordinator thread. The
//! node table sits behind one pool lock that is held only to *place* an
//! attempt, never while a task body runs; a DAG's ready queue and
//! in-flight count are its scheduling thread's own. Attempts run on node
//! threads, fully parallel across nodes — except when exactly one attempt
//! is runnable and none is in flight: with nothing to overlap, the
//! scheduling thread runs it itself, holding a slot of an alive node of
//! the class, accounted, traced and lost-on-kill like any other attempt
//! of that node. Task bodies must be
//! restartable: a task observed on a dead node is re-placed on a
//! surviving node of the same class, so a body may execute more than
//! once and must stage side effects idempotently (in this workspace,
//! by writing uncommitted manifest blocks that only a later
//! `commit_block_list` makes visible). DAG results are aggregated on
//! the caller's thread after all leaves complete; callers never observe
//! a partially-failed DAG — it either yields every task's output or one
//! [`DcpError`]. Topology changes (`add_nodes`, `kill_node`) are safe at
//! any time, including mid-DAG: kills surface as
//! [`TaskError::NodeLost`] on in-flight attempts and the scheduler
//! retries them elsewhere, which is exactly the §4.3 drill the Figure 12
//! harness runs.

mod dag;
mod error;
mod morsel;
mod pool;

pub use dag::{TaskCtx, TaskFn, WorkflowDag};
pub use error::{DcpError, DcpResult, TaskError};
pub use morsel::{Morsel, MorselCtx, MorselRunStats};
pub use pool::{ComputePool, NodeId, PoolStats, WorkloadClass};
