//! User transactions: the optimistic read phase and the commit protocol.

use crate::engine::{TxnContext, TxnStat};
use crate::read::{exec_to_task, execute_select, store_to_task};
use crate::{PolarisEngine, PolarisError, PolarisResult, QueryResult};
use polaris_catalog::{CatalogTxn, IsolationLevel, TableId, TableMeta};
use polaris_columnar::{ColumnVector, DataType, RecordBatch, Schema, Value};
use polaris_dcp::{TaskCtx, TaskError, WorkflowDag, WorkloadClass};
use polaris_exec::write::{self as bewrite, DeleteOutcome};
use polaris_exec::{cell::partition_cells, cells_of_snapshot, scan::scan_cell, Cell, Expr};
use polaris_lst::{Manifest, ManifestAction, SequenceId, TableSnapshot, TxnDelta};
use polaris_obs::{
    alloc, Phase, PhaseScope, QueryProfile, ScanMeter, Tracer, TxnProfile, ValidationOutcome,
};
use polaris_sql::Statement;
use polaris_store::{BlobPath, BlockId, Bytes, ObjectStore, Stamp};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Ceiling on tasks per write statement.
const MAX_WRITE_TASKS: usize = 16;

/// Per-table transactional state: the private, uncommitted world of the
/// transaction (§3.2.3).
pub(crate) struct TxnTable {
    pub(crate) meta: TableMeta,
    pub(crate) schema: Schema,
    /// Committed snapshot captured at first touch (SI read phase §4.1.1).
    pub(crate) base: Arc<TableSnapshot>,
    /// Reconciled private changes.
    pub(crate) delta: TxnDelta,
    /// Where this transaction's write tasks on the table put their files
    /// and stage their manifest blocks.
    target: Arc<WriteTarget>,
    /// The block list the final commit will publish. Statements only
    /// *stage* blocks; nothing becomes visible until
    /// [`Transaction::commit`] issues the one `commit_block_list` per
    /// table.
    blocks: Vec<BlockId>,
    /// Blocks staged into the manifest blob so far — non-zero means the
    /// blob physically exists and must be discarded if this table's
    /// changes are never published.
    staged_blocks: u64,
}

impl TxnTable {
    /// The snapshot this transaction's statements read: committed base
    /// overlaid with own writes — the shared base itself while the
    /// transaction has not written to the table.
    pub(crate) fn view(&self) -> Arc<TableSnapshot> {
        if self.delta.is_empty() {
            Arc::clone(&self.base)
        } else {
            Arc::new(self.delta.overlay(&self.base))
        }
    }
}

/// Room reserved per action when encoding a manifest block: an `AddFile`
/// with a few column ranges fits, so a block's buffer is allocated once.
const RECORD_BYTES_HINT: usize = 128;

/// What every write task of one transaction on one table shares, whichever
/// statement it belongs to and wherever it runs.
struct WriteTarget {
    store: Arc<dyn ObjectStore>,
    data_root: String,
    /// The transaction-manifest blob for this table.
    manifest: BlobPath,
    /// The transaction's id, as files are stamped with it for GC.
    stamp: Stamp,
}

impl WriteTarget {
    /// Delete the rows of `cell` that `outcome` found: store its merged
    /// delete vector and push the actions that swap it in. Returns the rows
    /// newly deleted.
    fn delete_rows(
        &self,
        cell: &Cell,
        outcome: DeleteOutcome,
        stmt: u32,
        ctx: &TaskCtx,
        actions: &mut Vec<ManifestAction>,
    ) -> Result<u64, TaskError> {
        let dv_path = format!(
            "{}/dv/{}-t{}-s{stmt}-a{}.dv",
            self.data_root,
            file_stem(&cell.file),
            self.stamp.0,
            ctx.attempt
        );
        bewrite::write_delete_vector(&*self.store, &dv_path, &outcome.merged, self.stamp)
            .map_err(exec_to_task)?;
        if let Some(old) = &cell.dv_path {
            actions.push(ManifestAction::remove_dv(cell.file.clone(), old.clone()));
        }
        let deleted = outcome.merged.cardinality() as u64;
        actions.push(ManifestAction::add_dv(cell.file.clone(), dv_path, deleted));
        Ok(outcome.newly_deleted)
    }

    /// The end of every write task: stage its actions as one manifest
    /// block (§3.2.2). The block ID folds in the attempt, so a stale
    /// attempt's block is never in the committed list.
    fn stage(
        &self,
        block: String,
        actions: Vec<ManifestAction>,
        rows: u64,
    ) -> Result<WriteTaskResult, TaskError> {
        let _alloc = PhaseScope::enter(Phase::ManifestStaging);
        let block = BlockId::new(block);
        let mut payload = Vec::with_capacity(RECORD_BYTES_HINT * actions.len());
        Manifest::encode_actions(&actions, &mut payload);
        self.store
            .stage_block(&self.manifest, block.clone(), payload.into(), self.stamp)
            .map_err(store_to_task)?;
        Ok((block, actions, rows))
    }
}

/// Outcome of a successful commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// Sequence number assigned to the transaction's manifests; `None` for
    /// read-only transactions (nothing entered the Manifests table).
    pub sequence: Option<SequenceId>,
    /// Manifest blocks published by this commit — the blocks listed in the
    /// final `commit_block_list` of every dirty table. Always 0 for
    /// read-only transactions.
    pub blocks_committed: u64,
}

/// An explicit multi-statement, multi-table user transaction.
///
/// Dropped without [`commit`](Transaction::commit) ⇒ rolled back; any
/// files it wrote are unreachable and reclaimed by GC (§5.3).
pub struct Transaction {
    engine: Arc<PolarisEngine>,
    pub(crate) ctxn: CatalogTxn,
    pub(crate) tables: HashMap<TableId, TxnTable>,
    /// Statement counter, used in block IDs and file names.
    stmt: u32,
    finished: bool,
    /// Scan accounting for the statement currently executing; zeroed at
    /// each profiled statement boundary.
    pub(crate) scan_meter: Arc<ScanMeter>,
    /// This transaction's cell in the live-stats directory behind
    /// `polaris.transactions`.
    stat: Arc<TxnStat>,
    /// Profile of the most recently executed statement (an auto-commit
    /// session takes it over at commit instead of copying it).
    pub(crate) last_profile: Option<QueryProfile>,
    /// Manifest blocks staged across the whole transaction. Blocks
    /// *committed* are known only at commit time and travel in
    /// [`CommitInfo::blocks_committed`].
    blocks_staged: u64,
    /// Engine tracer handle (disabled when the engine has no ring).
    tracer: Tracer,
    /// The transaction's root trace span; 0 once closed (commit, rollback
    /// or drop each close it exactly once).
    root_span: u64,
}

/// What a write task reports back to the DCP: the block it staged, the
/// manifest actions inside it (§3.2.2 step 6) and the rows it affected.
type WriteTaskResult = (BlockId, Vec<ManifestAction>, u64);

impl Transaction {
    pub(crate) fn begin(engine: Arc<PolarisEngine>, isolation: IsolationLevel) -> Self {
        let ctxn = engine.catalog().begin(isolation);
        let tracer = engine.tracer().clone();
        // Manual span: it outlives this call (statements and the commit
        // run later, possibly interleaved with other transactions on the
        // same thread), so the thread-local stack cannot own it.
        let root_span = if tracer.is_enabled() {
            tracer.begin_manual("txn", 0, vec![("txn", ctxn.id.0.into())])
        } else {
            0
        };
        // Registered in the live-stats directory until `Drop`.
        let TxnContext {
            tables,
            scan_meter,
            stat,
        } = engine.take_txn_context(ctxn.id.0);
        Transaction {
            engine,
            ctxn,
            tables,
            stmt: 0,
            finished: false,
            scan_meter,
            stat,
            last_profile: None,
            blocks_staged: 0,
            tracer,
            root_span,
        }
    }

    /// Close the root span exactly once, tagging how the transaction ended.
    fn end_root(&mut self, outcome: &str) {
        let span = std::mem::take(&mut self.root_span);
        if span != 0 {
            self.tracer
                .end_manual(span, "txn", vec![("outcome", outcome.into())]);
        }
    }

    /// The transaction's root trace span id (0 when tracing is disabled).
    pub fn trace_span(&self) -> u64 {
        self.root_span
    }

    /// Profile of the most recently executed statement. Validation stays
    /// [`Pending`](ValidationOutcome::Pending) until the transaction
    /// resolves; the session patches the outcome into its own copy.
    pub fn last_profile(&self) -> Option<&QueryProfile> {
        self.last_profile.as_ref()
    }

    /// Transaction-level accounting so far; the session fills in the
    /// validation outcome and commit wall time.
    pub(crate) fn txn_profile_snapshot(&self) -> TxnProfile {
        TxnProfile {
            statements: self.stmt,
            blocks_staged: self.blocks_staged,
            // Statements only stage; the session patches the commit-time
            // count from [`CommitInfo::blocks_committed`].
            blocks_committed: 0,
            tables_written: self.tables.values().filter(|t| !t.delta.is_empty()).count() as u64,
            validation: ValidationOutcome::Pending,
            ..TxnProfile::default()
        }
    }

    /// Run one statement (`kind` over `table`) with a zeroed scan meter,
    /// then publish its accounting as
    /// [`last_profile`](Transaction::last_profile) — `rows_out` is what
    /// `rows` reads off the result — and fold the scan counters into the
    /// engine registry.
    ///
    /// Cache / pool numbers are deltas over engine-wide meters: exact for
    /// a single session, approximate when sessions run concurrently (they
    /// share the snapshot caches and the compute pool).
    fn run_profiled<T>(
        &mut self,
        kind: &'static str,
        table: &str,
        rows: impl FnOnce(&T) -> u64,
        f: impl FnOnce(&mut Self) -> PolarisResult<T>,
    ) -> PolarisResult<T> {
        let bookkeeping = PhaseScope::enter(Phase::ProfileBookkeeping);
        // Zero the meter in place when uniquely held (steady state once
        // the previous statement's profile dropped its handle); fall back
        // to a fresh meter if a reader still holds the old one.
        match Arc::get_mut(&mut self.scan_meter) {
            Some(m) => m.reset(),
            None => self.scan_meter = Arc::new(ScanMeter::with_tracer(self.tracer.clone())),
        }
        let mut profile = QueryProfile {
            statement: format!("{kind} {table}"),
            query_id: self.engine.next_query_id(),
            ..QueryProfile::default()
        };
        let (hits0, misses0, pool0, staged0) = self.statement_counts();
        // Statement span: explicit parent (the root span is manual), but on
        // the thread-local stack so every span opened while `f` runs —
        // snapshot replay, DCP attempts, store commits — nests under it.
        // Its name is dynamic, which costs a String — only when tracing is
        // actually recording.
        let mut stmt_span = if self.tracer.is_enabled() {
            self.tracer
                .span_at(profile.statement.clone(), self.root_span)
        } else {
            polaris_obs::SpanGuard::default()
        };
        // Stamp the statement's stable id on its root span so
        // `polaris.trace_spans` rows join to `polaris.slow_log`.
        stmt_span.attr("query_id", profile.query_id);
        profile.trace_span = stmt_span.id();
        let phases0 = alloc::phase_totals();
        drop(bookkeeping);
        let start = std::time::Instant::now();
        let result = f(self);
        profile.wall_ns = start.elapsed().as_nanos() as u64;
        let _bookkeeping = PhaseScope::enter(Phase::ProfileBookkeeping);
        // Allocation / wait attribution: deltas of the global phase
        // counters over the statement window. Same concurrency caveat as
        // the cache columns below.
        profile.phases = alloc::phase_delta(&phases0, &alloc::phase_totals());
        drop(stmt_span);
        profile.absorb_scan(&self.scan_meter);
        profile.rows_out = result.as_ref().map_or(0, rows);
        self.scan_meter.fold_into(&self.engine.counters.exec);
        let (hits1, misses1, pool1, staged1) = self.statement_counts();
        profile.cache_hits = hits1.saturating_sub(hits0);
        profile.cache_misses = misses1.saturating_sub(misses0);
        profile.task_attempts = pool1.attempts.saturating_sub(pool0.attempts);
        profile.task_retries = pool1.retries.saturating_sub(pool0.retries);
        profile.blocks_staged = staged1 - staged0;
        // Roll the statement into the live `polaris.transactions` stats.
        let stat = &self.stat;
        let totals = profile.totals();
        stat.statements.store(self.stmt.into(), Ordering::Relaxed);
        stat.tables_touched
            .store(self.tables.len() as u64, Ordering::Relaxed);
        stat.alloc_bytes.fetch_add(totals.bytes, Ordering::Relaxed);
        stat.allocs.fetch_add(totals.allocs, Ordering::Relaxed);
        self.last_profile = Some(profile);
        result
    }

    /// The engine-wide meters a statement profile reports deltas of.
    fn statement_counts(&self) -> (u64, u64, polaris_dcp::PoolStats, u64) {
        let counters = &self.engine.counters;
        (
            counters.cache_hits.get(),
            counters.cache_misses.get(),
            self.engine.pool().stats(),
            self.blocks_staged,
        )
    }

    /// [`Self::run_profiled`] for DML, whose row count is the profile's
    /// `rows_out`.
    fn run_dml(
        &mut self,
        kind: &'static str,
        table: &str,
        f: impl FnOnce(&mut Self) -> PolarisResult<u64>,
    ) -> PolarisResult<u64> {
        self.run_profiled(kind, table, |n| *n, f)
    }

    /// The engine this transaction runs on.
    pub fn engine(&self) -> &Arc<PolarisEngine> {
        &self.engine
    }

    /// The durable transaction id (stamps files for GC).
    pub fn id(&self) -> u64 {
        self.ctxn.id.0
    }

    fn check_active(&self) -> PolarisResult<()> {
        if self.finished {
            return Err(PolarisError::invalid("transaction already finished"));
        }
        Ok(())
    }

    /// Load (or return cached) per-table state, capturing the committed
    /// snapshot on first touch.
    pub(crate) fn table_state(&mut self, name: &str) -> PolarisResult<TableId> {
        self.check_active()?;
        let meta = self.engine.catalog().table_by_name(&mut self.ctxn, name)?;
        let id = meta.id;
        if let Some(t) = self.tables.get_mut(&id) {
            // RCSI (§4.4.2): each statement may see later commits, so the
            // committed base refreshes on every touch — but only while this
            // transaction has not written to the table, because the private
            // delta is expressed against the base it was built on.
            if self.ctxn.isolation == IsolationLevel::ReadCommittedSnapshot && t.delta.is_empty() {
                t.base = self.engine.snapshot(&mut self.ctxn, &meta, None)?;
            }
            return Ok(id);
        }
        let schema = self.engine.table_schema(&meta)?;
        let base = self.engine.snapshot(&mut self.ctxn, &meta, None)?;
        let txn_id = self.ctxn.id.0;
        let target = Arc::new(WriteTarget {
            store: Arc::clone(self.engine.store()),
            manifest: BlobPath::new(polaris_lst::manifest_path(&meta.data_root, txn_id, id.0))?,
            data_root: meta.data_root.clone(),
            stamp: Stamp(txn_id),
        });
        self.tables.insert(
            id,
            TxnTable {
                meta,
                schema,
                base,
                delta: TxnDelta::new(),
                target,
                blocks: Vec::new(),
                staged_blocks: 0,
            },
        );
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Insert a batch of rows. Distributed across write nodes by
    /// distribution bucket; never conflicts with concurrent transactions
    /// (§4).
    pub fn insert(&mut self, table: &str, batch: &RecordBatch) -> PolarisResult<u64> {
        self.run_dml("insert", table, |t| {
            let tid = t.statement_table(table)?;
            t.write_rows(tid, batch)
        })
    }

    /// Start a write statement on `table`.
    fn statement_table(&mut self, table: &str) -> PolarisResult<TableId> {
        self.stmt += 1;
        self.table_state(table)
    }

    fn write_rows(&mut self, tid: TableId, batch: &RecordBatch) -> PolarisResult<u64> {
        let t = &self.tables[&tid];
        if batch.schema() != &t.schema {
            return Err(PolarisError::invalid(format!(
                "insert schema {} does not match table schema {}",
                batch.schema(),
                t.schema
            )));
        }
        let n = batch.num_rows();
        if n == 0 {
            return Ok(0);
        }
        let _alloc = PhaseScope::enter(Phase::WriteEncode);
        let config = self.engine.config();
        // Z-order clustering (§2.3): sort rows by the interleaved cluster
        // key so files get tight, mostly disjoint min/max statistics.
        let clustered = !t.meta.cluster_by.is_empty();
        let sorted;
        let batch = if clustered {
            sorted = cluster_batch(batch, &t.schema, &t.meta.cluster_by)?;
            &sorted
        } else {
            batch
        };
        // Partition rows into distributions: unclustered tables spread
        // round-robin; clustered tables take contiguous z-ranges, so each
        // distribution (and therefore each file) covers a key range. One
        // task per non-empty distribution, capped; a task writes one file
        // per distribution it was dealt.
        let dists = config.distributions as usize;
        let groups = n.min(dists);
        let mut tasks: Vec<Vec<(u32, RecordBatch)>> = vec![Vec::new(); groups.min(MAX_WRITE_TASKS)];
        let mut rows = Vec::with_capacity(n.div_ceil(groups));
        let mut filled = 0;
        for d in 0..dists {
            rows.clear();
            if clustered {
                // Row i belongs to distribution i * dists / n.
                rows.extend((d * n).div_ceil(dists)..((d + 1) * n).div_ceil(dists));
            } else {
                rows.extend((d..n).step_by(dists));
            }
            if !rows.is_empty() {
                let slot = filled % tasks.len();
                tasks[slot].push((d as u32, batch.take(&rows)));
                filled += 1;
            }
        }
        let mut dag: WorkflowDag<WriteTaskResult> = WorkflowDag::with_capacity(tasks.len());
        let (writer, stmt) = (config.writer, self.stmt);
        for group in tasks {
            let w = Arc::clone(&t.target);
            dag.add_task(move |ctx| {
                let _alloc = PhaseScope::enter(Phase::WriteEncode);
                let mut actions = Vec::with_capacity(group.len());
                let mut rows = 0u64;
                for (dist, part) in &group {
                    let path = format!(
                        "{}/data/t{}-s{stmt}-d{dist}-a{}.pcf",
                        w.data_root, w.stamp.0, ctx.attempt
                    );
                    let written = bewrite::write_data_file(&*w.store, &path, part, writer, w.stamp)
                        .map_err(exec_to_task)?;
                    rows += written.rows;
                    actions.push(add_file_action(written, *dist, part));
                }
                let block = format!("ins-s{stmt}-t{}-a{}", ctx.task, ctx.attempt);
                w.stage(block, actions, rows)
            });
        }
        // FE: aggregate block IDs and apply the actions to the private
        // delta; the blocks join the list the commit publishes (insert path
        // of §3.2.3).
        let (blocks, inserted) = self.run_write_dag(tid, dag)?;
        self.tables
            .get_mut(&tid)
            .expect("state loaded above")
            .blocks
            .extend(blocks);
        Ok(inserted)
    }

    /// Run a statement's write DAG and fold what its tasks report into the
    /// table's private delta. Returns the blocks they staged and the rows
    /// they affected.
    fn run_write_dag(
        &mut self,
        tid: TableId,
        dag: WorkflowDag<WriteTaskResult>,
    ) -> PolarisResult<(Vec<BlockId>, u64)> {
        let results = self.engine.pool().run_dag(dag, WorkloadClass::Write)?;
        let _alloc = PhaseScope::enter(Phase::ManifestStaging);
        let t = self.tables.get_mut(&tid).expect("state loaded by caller");
        let mut blocks = Vec::with_capacity(results.len());
        let mut rows = 0;
        for (block, actions, n) in results {
            blocks.push(block);
            rows += n;
            for action in &actions {
                t.delta.apply(&t.base, action)?;
            }
        }
        t.staged_blocks += blocks.len() as u64;
        self.blocks_staged += blocks.len() as u64;
        Ok((blocks, rows))
    }

    /// Delete rows matching `predicate` (all rows when `None`). Returns
    /// the number of rows deleted.
    pub fn delete(&mut self, table: &str, predicate: Option<&Expr>) -> PolarisResult<u64> {
        self.run_dml("delete", table, |t| t.delete_inner(table, predicate))
    }

    fn delete_inner(&mut self, table: &str, predicate: Option<&Expr>) -> PolarisResult<u64> {
        let tid = self.statement_table(table)?;
        let view = self.tables[&tid].view();

        // DELETE without WHERE removes whole files — pure metadata.
        let Some(predicate) = predicate else {
            let mut removed_rows = 0;
            let actions: Vec<ManifestAction> = view
                .files()
                .map(|f| {
                    removed_rows += f.live_rows();
                    ManifestAction::remove_file(f.entry.path.clone())
                })
                .collect();
            let t = self.tables.get_mut(&tid).expect("state loaded above");
            for action in &actions {
                t.delta.apply(&t.base, action)?;
            }
            self.rewrite_manifest(tid)?;
            return Ok(removed_rows);
        };

        let cells = cells_of_snapshot(&view);
        if cells.is_empty() {
            return Ok(0);
        }
        let config = self.engine.config();
        let groups = partition_cells(cells, MAX_WRITE_TASKS.min(config.distributions as usize));
        let mut dag: WorkflowDag<WriteTaskResult> = WorkflowDag::with_capacity(groups.len());
        let stmt = self.stmt;
        for group in groups.into_iter().filter(|g| !g.is_empty()) {
            let w = Arc::clone(&self.tables[&tid].target);
            let predicate = predicate.clone();
            dag.add_task(move |ctx| {
                let mut actions = Vec::new();
                let mut deleted = 0u64;
                for cell in &group {
                    // A ranged read of the predicate's columns; no match,
                    // no write (and no conflict on the file, §4.4.1).
                    if let Some(outcome) = bewrite::delete_matching(&*w.store, cell, &predicate)
                        .map_err(exec_to_task)?
                    {
                        deleted += w.delete_rows(cell, outcome, stmt, ctx, &mut actions)?;
                    }
                }
                let block = format!("del-s{stmt}-t{}-a{}", ctx.task, ctx.attempt);
                w.stage(block, actions, deleted)
            });
        }
        let (_, deleted) = self.run_write_dag(tid, dag)?;
        // Updates/deletes trigger the reconciling manifest rewrite
        // (§3.2.3): the committed manifest reflects only the net delta.
        self.rewrite_manifest(tid)?;
        Ok(deleted)
    }

    /// Update rows matching `predicate`: delete + re-insert with the
    /// assignments applied (§4.1.1 step 2).
    pub fn update(
        &mut self,
        table: &str,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> PolarisResult<u64> {
        self.run_dml("update", table, |t| {
            t.update_inner(table, assignments, predicate)
        })
    }

    fn update_inner(
        &mut self,
        table: &str,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> PolarisResult<u64> {
        let tid = self.statement_table(table)?;
        let t = &self.tables[&tid];
        let schema = t.schema.clone();
        for (col, _) in assignments {
            schema
                .field(col)
                .map_err(|_| PolarisError::invalid(format!("unknown column {col} in UPDATE")))?;
        }
        let view = t.view();
        let cells = cells_of_snapshot(&view);
        if cells.is_empty() {
            return Ok(0);
        }
        let config = self.engine.config();
        let groups = partition_cells(cells, MAX_WRITE_TASKS.min(config.distributions as usize));
        let mut dag: WorkflowDag<WriteTaskResult> = WorkflowDag::with_capacity(groups.len());
        let (writer, stmt) = (config.writer, self.stmt);
        let assignments: Arc<Vec<(String, Expr)>> = Arc::new(assignments.to_vec());
        // Rewritten: the live rows matching the predicate, all without one.
        let predicate = predicate.cloned();
        for group in groups.into_iter().filter(|g| !g.is_empty()) {
            let w = Arc::clone(&t.target);
            let predicate = predicate.clone();
            let schema = schema.clone();
            let assignments = Arc::clone(&assignments);
            dag.add_task(move |ctx| {
                let mut actions = Vec::new();
                let mut updated = 0u64;
                for cell in &group {
                    // One eager read finds the rows and the delete vector
                    // that removes them.
                    let Some((live, outcome)) =
                        scan_cell(&*w.store, cell, None, predicate.as_ref())
                            .map_err(exec_to_task)?
                    else {
                        continue;
                    };
                    // Delete them from the original file.
                    w.delete_rows(cell, outcome, stmt, ctx, &mut actions)?;
                    // Re-insert the updated versions.
                    let new_rows = apply_assignments(&live, &schema, &assignments)
                        .map_err(|e| TaskError::fatal(e.to_string()))?;
                    let path = format!(
                        "{}/data/t{}-s{stmt}-u{}-a{}.pcf",
                        w.data_root,
                        w.stamp.0,
                        file_stem(&cell.file),
                        ctx.attempt
                    );
                    let written =
                        bewrite::write_data_file(&*w.store, &path, &new_rows, writer, w.stamp)
                            .map_err(exec_to_task)?;
                    actions.push(add_file_action(written, cell.distribution, &new_rows));
                    updated += new_rows.num_rows() as u64;
                }
                let block = format!("upd-s{stmt}-t{}-a{}", ctx.task, ctx.attempt);
                w.stage(block, actions, updated)
            });
        }
        let (_, updated) = self.run_write_dag(tid, dag)?;
        self.rewrite_manifest(tid)?;
        Ok(updated)
    }

    /// Apply a pre-built action delta — the entry point compaction (§5.1)
    /// and restore (§6.3) use. Actions must already reference files that
    /// exist in storage.
    pub(crate) fn apply_actions(
        &mut self,
        table: &str,
        actions: &[ManifestAction],
    ) -> PolarisResult<()> {
        let tid = self.statement_table(table)?;
        {
            let t = self.tables.get_mut(&tid).expect("state loaded above");
            for action in actions {
                t.delta.apply(&t.base, action)?;
            }
        }
        self.rewrite_manifest(tid)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Run a SELECT (parsed and planned by the FE) under this
    /// transaction's snapshot plus its own writes.
    pub fn query(&mut self, sql: &str) -> PolarisResult<RecordBatch> {
        match polaris_sql::parse(sql)? {
            select @ Statement::Select(_) => Ok(self.execute_statement(&select)?.batch),
            _ => Err(PolarisError::invalid("query() requires a SELECT statement")),
        }
    }

    /// Execute one parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> PolarisResult<QueryResult> {
        self.check_active()?;
        match stmt {
            Statement::Select(sel) => {
                let plan = polaris_sql::plan_select(sel)?;
                let rows = |r: &QueryResult| r.batch.num_rows() as u64;
                self.run_profiled("select", &plan.table, rows, |t| execute_select(t, &plan))
            }
            Statement::Insert { table, rows } => {
                // One table lookup serves the literal coercion and the write.
                let n = self.run_dml("insert", table, |t| {
                    let tid = t.statement_table(table)?;
                    let schema = t.tables[&tid].schema.clone();
                    let coerced = coerce_rows(&schema, rows)?;
                    let batch = RecordBatch::from_rows(schema, &coerced)
                        .map_err(|e| PolarisError::invalid(e.to_string()))?;
                    t.write_rows(tid, &batch)
                })?;
                Ok(QueryResult::affected(n))
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let n = self.update(table, assignments, predicate.as_ref())?;
                Ok(QueryResult::affected(n))
            }
            Statement::Delete { table, predicate } => {
                let n = self.delete(table, predicate.as_ref())?;
                Ok(QueryResult::affected(n))
            }
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::ExplainAnalyze(_)
            | Statement::ShowEngineHealth
            | Statement::ShowTables { .. } => Err(PolarisError::invalid(
                "DDL, EXPLAIN ANALYZE, SHOW, and transaction control are handled by the session",
            )),
        }
    }

    // ------------------------------------------------------------------
    // Manifest plumbing
    // ------------------------------------------------------------------

    /// Rewrite path: serialize the reconciled delta into fresh staged
    /// blocks and make them the table's to-be-published list
    /// (update/delete statements, §3.2.3). Nothing is committed here;
    /// obsolete blocks from earlier statements simply stay staged and are
    /// discarded when the final `commit_block_list` publishes only the
    /// current list (Block-Blob semantics).
    fn rewrite_manifest(&mut self, tid: TableId) -> PolarisResult<()> {
        let stmt = self.stmt;
        let t = self.tables.get_mut(&tid).expect("state loaded");
        let w = &t.target;
        let actions = t.delta.to_actions();
        let chunk_size = actions.len().div_ceil(MAX_WRITE_TASKS).max(1);
        // Every block is a window of one buffer: encoded once, never copied.
        let mut encoded = Vec::with_capacity(RECORD_BYTES_HINT * actions.len());
        let mut ends = Vec::new();
        for chunk in actions.chunks(chunk_size) {
            Manifest::encode_actions(chunk, &mut encoded);
            ends.push(encoded.len());
        }
        let encoded = Bytes::from(encoded);
        let mut ids = Vec::with_capacity(ends.len());
        let mut start = 0;
        for (k, end) in ends.into_iter().enumerate() {
            let id = BlockId::new(format!("rw-s{stmt}-k{k}"));
            w.store
                .stage_block(&w.manifest, id.clone(), encoded.slice(start..end), w.stamp)?;
            ids.push(id);
            start = end;
        }
        let n = ids.len() as u64;
        t.blocks = ids;
        t.staged_blocks += n;
        self.blocks_staged += n;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit / rollback (§4.1.2)
    // ------------------------------------------------------------------

    /// Validate and commit.
    ///
    /// The write sets are recorded (step 1), first-committer-wins
    /// validation runs (step 2), and only then — in the commit protocol's
    /// *prepare* stage, before the sequencer assigns a timestamp — is the
    /// one `commit_block_list` of every dirty table's manifest blob
    /// issued. A published sequence therefore always points at
    /// fully-committed manifest blobs, a store round-trip never holds the
    /// global sequencer, and a validation loser publishes nothing: its
    /// staged blocks were never visible (Block-Blob semantics) and are
    /// discarded with the blob. On conflict everything rolls back and
    /// [`PolarisError::Conflict`] is returned — the transaction can be
    /// retried from scratch.
    pub fn commit(mut self) -> PolarisResult<CommitInfo> {
        self.check_active()?;
        self.finished = true;
        self.stat.committing.store(true, Ordering::Relaxed);
        let commit_span = self.tracer.span_at("txn.commit", self.root_span);
        let granularity = self.engine.config().conflict_granularity;
        let mut manifests: Vec<(TableId, String)> = Vec::new();
        let mut recorded = Ok(());
        for (tid, t) in &self.tables {
            if t.delta.is_empty() {
                continue;
            }
            manifests.push((*tid, t.target.manifest.as_str().to_owned()));
            let modified: Vec<String> = t.delta.modified_base_files().map(str::to_owned).collect();
            if !modified.is_empty() && recorded.is_ok() {
                recorded = self.engine.catalog().record_write_set(
                    &mut self.ctxn,
                    *tid,
                    &modified,
                    granularity,
                );
            }
        }
        let mut blocks_committed = 0u64;
        let mut publish_err: Option<PolarisError> = None;
        let outcome = if manifests.is_empty() {
            // Read-only (or DDL-only): plain catalog commit, no sequence.
            self.engine.catalog().commit(&mut self.ctxn).map(|_| None)
        } else {
            let (engine, tables) = (&self.engine, &mut self.tables);
            recorded.and_then(|()| {
                engine
                    .catalog()
                    .commit_write_prepared(&mut self.ctxn, &manifests, || {
                        publish_manifests(engine, tables, &manifests)
                            .map(|n| blocks_committed = n)
                            .map_err(|e| {
                                publish_err = Some(e);
                                polaris_catalog::CatalogError::CommitLogFailure {
                                    detail: "manifest publication failed".to_owned(),
                                }
                            })
                    })
                    .map(|outcome| Some(SequenceId(outcome.commit_ts.0)))
            })
        };
        // What was published stays; every other staged blob goes: tables
        // with an empty net delta (a DELETE that matched nothing) on
        // success, everything on failure. A failed publication has no
        // attempt still running by now (`run_dag` returns after the last
        // one reported), so none can re-create a blob after its delete.
        self.discard_staged_manifests(if outcome.is_ok() { &manifests } else { &[] });
        drop(commit_span);
        self.end_root(outcome.as_ref().map_or("aborted", |_| "committed"));
        let sequence = outcome.map_err(|e| publish_err.take().unwrap_or_else(|| e.into()))?;
        self.engine.maybe_checkpoint_commit_log();
        Ok(CommitInfo {
            sequence,
            blocks_committed,
        })
    }

    /// Delete per-transaction manifest blobs that will never be
    /// published: every table with staged blocks not listed in `keep`.
    /// Deleting the blob drops its staged block set too (Block-Blob
    /// semantics), so aborted and rolled-back transactions stop leaving
    /// orphaned manifests for GC to chase; each discarded blob counts
    /// into the engine-wide `store.orphaned_manifests` counter.
    fn discard_staged_manifests(&mut self, keep: &[(TableId, String)]) {
        for (tid, t) in &mut self.tables {
            if t.staged_blocks == 0 || keep.iter().any(|(k, _)| k == tid) {
                continue;
            }
            t.staged_blocks = 0;
            t.blocks.clear();
            if t.target.store.delete(&t.target.manifest).is_ok() {
                self.engine.counters.orphaned_manifests.inc();
            }
        }
    }

    /// Roll back: private changes vanish; staged manifest blobs are
    /// discarded eagerly (data files are reclaimed by GC).
    pub fn rollback(mut self) {
        if !self.finished {
            // `Drop` does the rest.
            self.end_root("rolled_back");
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            self.discard_staged_manifests(&[]);
            self.engine.catalog().abort(&mut self.ctxn);
        }
        // Commit / rollback already closed the root span; this is the
        // abandoned-drop path (and a no-op when root_span is 0).
        self.end_root("aborted");
        // Every exit path funnels through Drop, so the live-stats entry
        // behind `polaris.transactions` is removed exactly once here, and
        // the table map, scan meter and stats cell go back to the engine
        // for the next `begin` to reuse. `recycle_txn_context` clears the
        // map first, releasing base snapshot refs.
        let ctx = TxnContext {
            tables: std::mem::take(&mut self.tables),
            scan_meter: Arc::clone(&self.scan_meter),
            stat: Arc::clone(&self.stat),
        };
        self.engine.recycle_txn_context(self.ctxn.id.0, ctx);
    }
}

/// The final `commit_block_list` of every dirty table, as one Write-class
/// DAG: each task publishes one table's accumulated block list and reports
/// how many blocks it committed. One table is one task, which the pool
/// runs on this thread; several fan out to lanes. `commit_block_list` is
/// idempotent, so an attempt retried after a transient store fault is safe.
fn publish_manifests(
    engine: &PolarisEngine,
    tables: &mut HashMap<TableId, TxnTable>,
    manifests: &[(TableId, String)],
) -> PolarisResult<u64> {
    let _alloc = PhaseScope::enter(Phase::ManifestUpload);
    let mut dag: WorkflowDag<u64> = WorkflowDag::with_capacity(manifests.len());
    for (tid, _) in manifests {
        let t = tables
            .get_mut(tid)
            .expect("a dirty table of this transaction");
        // The list moves into the task: nothing reads it after the commit.
        let (w, blocks) = (Arc::clone(&t.target), std::mem::take(&mut t.blocks));
        dag.add_task(move |_ctx| {
            let _alloc = PhaseScope::enter(Phase::ManifestUpload);
            w.store
                .commit_block_list(&w.manifest, &blocks, w.stamp)
                .map_err(store_to_task)?;
            Ok(blocks.len() as u64)
        });
    }
    let counts = engine.pool().run_dag(dag, WorkloadClass::Write)?;
    Ok(counts.into_iter().sum())
}

fn file_stem(path: &str) -> String {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.trim_end_matches(".pcf").to_owned()
}

/// Rebuild `live` with assignments applied, coercing back onto the table
/// schema.
fn apply_assignments(
    live: &RecordBatch,
    schema: &Schema,
    assignments: &[(String, Expr)],
) -> PolarisResult<RecordBatch> {
    let mut columns = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let expr = assignments
            .iter()
            .find(|(c, _)| c == &field.name)
            .map(|(_, e)| e.clone())
            .unwrap_or_else(|| Expr::col(field.name.clone()));
        columns.push(coerce_column(expr.eval(live)?, field.data_type)?);
    }
    RecordBatch::new(schema.clone(), columns).map_err(|e| PolarisError::invalid(e.to_string()))
}

/// Build an `AddFile` action carrying per-column min/max ranges computed
/// from the written batch — the Delta-style manifest statistics that let
/// scans prune files without fetching them.
pub(crate) fn add_file_action(
    written: bewrite::WrittenFile,
    distribution: u32,
    batch: &RecordBatch,
) -> ManifestAction {
    use polaris_columnar::ColumnStats;
    use polaris_lst::{ColRange, DataFileEntry, RangeVal};
    let mut col_ranges = Vec::new();
    for (field, col) in batch.schema().fields().iter().zip(batch.columns()) {
        let stats = ColumnStats::from_vector(col);
        if let (Some(min), Some(max)) = (&stats.min, &stats.max) {
            if let (Some(min), Some(max)) = (RangeVal::from_value(min), RangeVal::from_value(max)) {
                col_ranges.push(ColRange {
                    column: field.name.clone(),
                    min,
                    max,
                });
            }
        }
    }
    ManifestAction::AddFile(DataFileEntry {
        path: written.path,
        rows: written.rows,
        bytes: written.bytes,
        distribution,
        col_ranges,
    })
}

/// Sort a batch by the Z-value of its cluster-key columns.
fn cluster_batch(
    batch: &RecordBatch,
    schema: &Schema,
    cluster_by: &[String],
) -> PolarisResult<RecordBatch> {
    use polaris_columnar::zorder;
    let mut key_cols = Vec::with_capacity(cluster_by.len());
    for key in cluster_by {
        let _ = schema
            .field(key)
            .map_err(|e| PolarisError::invalid(e.to_string()))?;
        key_cols.push(
            batch
                .column_by_name(key)
                .map_err(|e| PolarisError::invalid(e.to_string()))?,
        );
    }
    let keys: Vec<Vec<u64>> = (0..batch.num_rows())
        .map(|row| {
            key_cols
                .iter()
                .map(|col| match col.value(row) {
                    Value::Int(v) => zorder::normalize_i64(v),
                    Value::Date(v) => zorder::normalize_i64(v as i64),
                    Value::Float(v) => zorder::normalize_f64(v),
                    // NULLs and other types sort first.
                    _ => 0,
                })
                .collect()
        })
        .collect();
    let perm = zorder::zorder_permutation(&keys);
    Ok(batch.take(&perm))
}

/// Coerce literal rows onto the table schema (INSERT ... VALUES).
fn coerce_rows(schema: &Schema, rows: &[Vec<Value>]) -> PolarisResult<Vec<Vec<Value>>> {
    rows.iter()
        .map(|row| {
            if row.len() != schema.len() {
                return Err(PolarisError::invalid(format!(
                    "INSERT row has {} values, table has {} columns",
                    row.len(),
                    schema.len()
                )));
            }
            row.iter()
                .zip(schema.fields())
                .map(|(v, f)| coerce_value(v, f.data_type))
                .collect()
        })
        .collect()
}

/// Widen/narrow a literal onto a column type where lossless.
fn coerce_value(v: &Value, target: DataType) -> PolarisResult<Value> {
    Ok(match (v, target) {
        (Value::Null, _) => Value::Null,
        (Value::Int(i), DataType::Float64) => Value::Float(*i as f64),
        (Value::Int(i), DataType::Date32) => Value::Date(*i as i32),
        (Value::Date(d), DataType::Int64) => Value::Int(*d as i64),
        (v, t) if v.data_type() == Some(t) => v.clone(),
        (v, t) => return Err(PolarisError::invalid(format!("cannot coerce {v} to {t}"))),
    })
}

/// [`coerce_value`] over a whole column.
fn coerce_column(col: ColumnVector, target: DataType) -> PolarisResult<ColumnVector> {
    if col.data_type() == target {
        return Ok(col);
    }
    Ok(match (col, target) {
        (ColumnVector::Int64 { values, validity }, DataType::Float64) => ColumnVector::Float64 {
            values: values.iter().map(|&v| v as f64).collect(),
            validity,
        },
        (ColumnVector::Int64 { values, validity }, DataType::Date32) => ColumnVector::Date32 {
            values: values.iter().map(|&v| v as i32).collect(),
            validity,
        },
        (ColumnVector::Date32 { values, validity }, DataType::Int64) => ColumnVector::Int64 {
            values: values.iter().map(|&v| i64::from(v)).collect(),
            validity,
        },
        (col, target) => match (0..col.len()).find(|&i| col.is_valid(i)) {
            // Nothing but NULLs (`SET c = NULL`) fits any type.
            None => ColumnVector::nulls(target, col.len()),
            Some(i) => {
                return Err(PolarisError::invalid(format!(
                    "cannot coerce {} to {target}",
                    col.value(i)
                )))
            }
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(
            coerce_value(&Value::Int(3), DataType::Float64).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            coerce_value(&Value::Int(3), DataType::Date32).unwrap(),
            Value::Date(3)
        );
        assert_eq!(
            coerce_value(&Value::Null, DataType::Utf8).unwrap(),
            Value::Null
        );
        assert!(coerce_value(&Value::Str("x".into()), DataType::Int64).is_err());
    }

    #[test]
    fn file_stems() {
        assert_eq!(file_stem("lake/t/data/f1.pcf"), "f1");
        assert_eq!(file_stem("plain"), "plain");
    }
}
