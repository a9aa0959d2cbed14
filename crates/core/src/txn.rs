//! User transactions: the optimistic read phase and the commit protocol.

use crate::read::execute_select;
use crate::{PolarisEngine, PolarisError, PolarisResult, QueryResult};
use polaris_catalog::{CatalogTxn, IsolationLevel, TableId, TableMeta};
use polaris_columnar::{ColumnVector, DataType, RecordBatch, Schema, Value};
use polaris_dcp::{DagHandle, TaskError, WorkflowDag, WorkloadClass};
use polaris_exec::{cell::partition_cells, cells_of_snapshot, write as bewrite, Expr};
use polaris_lst::{Manifest, ManifestAction, SequenceId, TableSnapshot, TxnDelta};
use polaris_obs::{QueryProfile, ScanMeter, Tracer, TxnProfile, ValidationOutcome};
use polaris_sql::Statement;
use polaris_store::{BlobPath, BlockId, Stamp};
use std::collections::HashMap;
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
    /// The transaction-manifest blob for this table.
    manifest_path: BlobPath,
    /// The block list the final commit will publish. Statements only
    /// *stage* blocks; nothing becomes visible until
    /// [`Transaction::commit`] issues the one `commit_block_list` per
    /// table (pipelined with validation).
    blocks: Vec<BlockId>,
    /// Blocks staged into the manifest blob so far — non-zero means the
    /// blob physically exists and must be discarded if this table's
    /// changes are never published.
    staged_blocks: u64,
}

impl TxnTable {
    /// The snapshot this transaction's statements read: committed base
    /// overlaid with own writes.
    pub(crate) fn view(&self) -> TableSnapshot {
        self.delta.overlay(&self.base)
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
    /// Scan accounting for the statement currently executing; replaced
    /// with a fresh meter at each profiled statement boundary.
    pub(crate) scan_meter: Arc<ScanMeter>,
    /// Profile of the most recently executed statement.
    last_profile: Option<QueryProfile>,
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

/// What a write task reports back to the DCP: the blocks it staged and the
/// manifest actions inside them (§3.2.2 step 6).
type WriteTaskResult = (Vec<BlockId>, Vec<ManifestAction>, u64);

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
        let (tables, scan_meter) = engine.take_txn_context();
        // Register in the live-stats directory backing
        // `polaris.transactions`; removed again in `Drop`.
        engine.txn_stat_begin(ctxn.id.0);
        Transaction {
            engine,
            ctxn,
            tables,
            stmt: 0,
            finished: false,
            scan_meter,
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
            commit_wall_ns: 0,
            commit_alloc_bytes: 0,
            commit_allocs: 0,
        }
    }

    /// Run one statement with a fresh scan meter, then publish its
    /// accounting as [`last_profile`](Transaction::last_profile) and fold
    /// the scan counters into the engine registry.
    ///
    /// Cache / pool numbers are deltas over engine-wide meters: exact for
    /// a single session, approximate when sessions run concurrently (they
    /// share the snapshot caches and the compute pool).
    fn run_profiled<T>(
        &mut self,
        statement: &str,
        f: impl FnOnce(&mut Self) -> PolarisResult<T>,
    ) -> PolarisResult<T> {
        // Zero the meter in place when uniquely held (steady state once
        // the previous statement's profile dropped its handle); fall back
        // to a fresh meter if a reader still holds the old one.
        match Arc::get_mut(&mut self.scan_meter) {
            Some(m) => m.reset(),
            None => self.scan_meter = Arc::new(ScanMeter::with_tracer(self.tracer.clone())),
        }
        let registry = Arc::clone(self.engine.metrics());
        let hits = registry.counter("lst.cache.hits");
        let misses = registry.counter("lst.cache.misses");
        let (hits0, misses0) = (hits.get(), misses.get());
        let pool0 = self.engine.pool().stats();
        let staged0 = self.blocks_staged;
        // Statement span: explicit parent (the root span is manual), but on
        // the thread-local stack so every span opened while `f` runs —
        // snapshot replay, DCP attempts, store commits — nests under it.
        // Statement names are dynamic, so the span name costs one String —
        // but only when tracing is actually recording.
        let query_id = self.engine.next_query_id();
        let mut stmt_span = if self.tracer.is_enabled() {
            self.tracer.span_at(statement.to_owned(), self.root_span)
        } else {
            polaris_obs::SpanGuard::default()
        };
        // Stamp the statement's stable id on its root span so
        // `polaris.trace_spans` rows join to `polaris.slow_log`.
        stmt_span.attr("query_id", query_id);
        let trace_span = stmt_span.id();
        let alloc0 = polaris_obs::alloc::phase_totals();
        let start = std::time::Instant::now();
        let result = f(self);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let alloc1 = polaris_obs::alloc::phase_totals();
        drop(stmt_span);
        let meter = Arc::clone(&self.scan_meter);
        let mut profile = QueryProfile {
            statement: statement.to_owned(),
            ..QueryProfile::default()
        };
        profile.absorb_scan(&meter);
        profile.rows_out = ScanMeter::read(&meter.rows_out);
        meter.fold_into_registry(&registry);
        profile.cache_hits = hits.get().saturating_sub(hits0);
        profile.cache_misses = misses.get().saturating_sub(misses0);
        let pool1 = self.engine.pool().stats();
        profile.task_attempts = pool1.attempts.saturating_sub(pool0.attempts);
        profile.task_retries = pool1.retries.saturating_sub(pool0.retries);
        profile.blocks_staged = self.blocks_staged - staged0;
        // Allocation / wait attribution: deltas of the global phase
        // counters over the statement window. Same concurrency caveat as
        // the cache columns above.
        for (i, phase) in polaris_obs::AllocPhase::ALL.iter().enumerate() {
            let bytes = alloc1[i].bytes.saturating_sub(alloc0[i].bytes);
            let allocs = alloc1[i].allocs.saturating_sub(alloc0[i].allocs);
            profile.alloc_bytes += bytes;
            profile.allocs += allocs;
            profile.wait_ns += alloc1[i].wait_ns.saturating_sub(alloc0[i].wait_ns);
            if bytes > 0 || allocs > 0 {
                profile
                    .alloc_phases
                    .push((phase.label().to_owned(), bytes, allocs));
            }
        }
        profile.wall_ns = wall_ns;
        profile.phase("execute", wall_ns);
        profile.trace_span = trace_span;
        profile.query_id = query_id;
        // Roll the statement into the live `polaris.transactions` stats.
        let (statements, tables_touched, alloc_bytes, allocs) = (
            self.stmt,
            self.tables.len() as u32,
            profile.alloc_bytes,
            profile.allocs,
        );
        self.engine.txn_stat_update(self.ctxn.id.0, |s| {
            s.statements = statements;
            s.tables_touched = tables_touched;
            s.alloc_bytes += alloc_bytes;
            s.allocs += allocs;
        });
        self.last_profile = Some(profile);
        result
    }

    /// The engine this transaction runs on.
    pub fn engine(&self) -> &Arc<PolarisEngine> {
        &self.engine
    }

    /// The durable transaction id (stamps files for GC).
    pub fn id(&self) -> u64 {
        self.ctxn.id.0
    }

    fn stamp(&self) -> Stamp {
        Stamp(self.ctxn.id.0)
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
        let (meta, schema) = self.engine.table_meta(&mut self.ctxn, name)?;
        if self.tables.contains_key(&meta.id) {
            // RCSI (§4.4.2): each statement may see later commits, so the
            // committed base refreshes on every touch — but only while this
            // transaction has not written to the table, because the private
            // delta is expressed against the base it was built on.
            if self.ctxn.isolation == IsolationLevel::ReadCommittedSnapshot
                && self.tables[&meta.id].delta.is_empty()
            {
                let base = self.engine.snapshot(&mut self.ctxn, &meta, None)?;
                self.tables.get_mut(&meta.id).expect("checked above").base = base;
            }
            return Ok(meta.id);
        }
        let base = self.engine.snapshot(&mut self.ctxn, &meta, None)?;
        let manifest_path = BlobPath::new(format!(
            "{}/_log/txn-{}-{}.json",
            meta.data_root, self.ctxn.id.0, meta.id.0
        ))?;
        let id = meta.id;
        self.tables.insert(
            id,
            TxnTable {
                meta,
                schema,
                base,
                delta: TxnDelta::new(),
                manifest_path,
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
        let label = format!("insert {table}");
        let n = self.run_profiled(&label, |t| t.insert_inner(table, batch))?;
        if let Some(p) = self.last_profile.as_mut() {
            p.rows_out = n;
        }
        Ok(n)
    }

    fn insert_inner(&mut self, table: &str, batch: &RecordBatch) -> PolarisResult<u64> {
        self.stmt += 1;
        let tid = self.table_state(table)?;
        let t = &self.tables[&tid];
        if batch.schema() != &t.schema {
            return Err(PolarisError::invalid(format!(
                "insert schema {} does not match table schema {}",
                batch.schema(),
                t.schema
            )));
        }
        if batch.num_rows() == 0 {
            return Ok(0);
        }
        let config = self.engine.config();
        // Z-order clustering (§2.3): sort rows by the interleaved cluster
        // key so files get tight, mostly disjoint min/max statistics.
        let cluster_by = t.meta.cluster_by.clone();
        let clustered;
        let batch = if cluster_by.is_empty() {
            batch
        } else {
            clustered = cluster_batch(batch, &t.schema, &cluster_by)?;
            &clustered
        };
        // Partition rows into distributions. Unclustered tables spread
        // round-robin; clustered tables take contiguous z-ranges so each
        // distribution (and therefore each file) covers a key range.
        let dists = config.distributions as usize;
        let mut by_dist: Vec<Vec<usize>> = vec![Vec::new(); dists];
        let n = batch.num_rows();
        for i in 0..n {
            let d = if cluster_by.is_empty() {
                i % dists
            } else {
                i * dists / n
            };
            by_dist[d.min(dists - 1)].push(i);
        }
        let groups: Vec<(u32, RecordBatch)> = by_dist
            .into_iter()
            .enumerate()
            .filter(|(_, idx)| !idx.is_empty())
            .map(|(d, idx)| (d as u32, batch.take(&idx)))
            .collect();

        // One task per distribution group, capped.
        let task_groups = chunk_evenly(groups, MAX_WRITE_TASKS);
        let mut dag: WorkflowDag<WriteTaskResult> = WorkflowDag::with_capacity(task_groups.len());
        let store = Arc::clone(self.engine.store());
        let writer = config.writer;
        let stamp = self.stamp();
        let stmt = self.stmt;
        let data_root = t.meta.data_root.clone();
        let manifest_path = t.manifest_path.clone();
        let txn_id = self.ctxn.id.0;
        for group in task_groups {
            let store = Arc::clone(&store);
            let data_root = data_root.clone();
            let manifest_path = manifest_path.clone();
            let group = Arc::new(group);
            dag.add_task(move |ctx| {
                let mut actions = Vec::new();
                let mut rows = 0u64;
                for (dist, part) in group.iter() {
                    let path = format!(
                        "{data_root}/data/t{txn_id}-s{stmt}-d{dist}-a{}.pcf",
                        ctx.attempt
                    );
                    let written = bewrite::write_data_file(&*store, &path, part, writer, stamp)
                        .map_err(exec_to_task)?;
                    rows += written.rows;
                    actions.push(add_file_action(
                        written.path,
                        written.rows,
                        written.bytes,
                        *dist,
                        part,
                    ));
                }
                // Stage one manifest block per task (§3.2.2); the ID folds
                // in the attempt so stale attempts are never committed.
                let block = BlockId::new(format!("ins-s{stmt}-t{}-a{}", ctx.task, ctx.attempt));
                let payload = Manifest::encode_actions(&actions);
                store
                    .stage_block(&manifest_path, block.clone(), payload, stamp)
                    .map_err(store_to_task)?;
                Ok((vec![block], actions, rows))
            });
        }
        let results = self.engine.pool().run_dag(dag, WorkloadClass::Write)?;
        // FE: aggregate block IDs, apply actions to the private delta, and
        // append-commit the manifest blob (insert path of §3.2.3).
        let mut new_blocks = Vec::new();
        let mut inserted = 0;
        {
            let t = self.tables.get_mut(&tid).expect("state loaded above");
            for (ids, actions, rows) in results {
                new_blocks.extend(ids);
                inserted += rows;
                for action in &actions {
                    t.delta.apply(&t.base, action)?;
                }
            }
            let staged = new_blocks.len() as u64;
            t.blocks.extend(new_blocks);
            t.staged_blocks += staged;
            self.blocks_staged += staged;
        }
        Ok(inserted)
    }

    /// Delete rows matching `predicate` (all rows when `None`). Returns
    /// the number of rows deleted.
    pub fn delete(&mut self, table: &str, predicate: Option<&Expr>) -> PolarisResult<u64> {
        let label = format!("delete {table}");
        let n = self.run_profiled(&label, |t| t.delete_inner(table, predicate))?;
        if let Some(p) = self.last_profile.as_mut() {
            p.rows_out = n;
        }
        Ok(n)
    }

    fn delete_inner(&mut self, table: &str, predicate: Option<&Expr>) -> PolarisResult<u64> {
        self.stmt += 1;
        let tid = self.table_state(table)?;
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
        let stamp = self.stamp();
        let stmt = self.stmt;
        let txn_id = self.ctxn.id.0;
        let data_root = self.tables[&tid].meta.data_root.clone();
        let manifest_path = self.tables[&tid].manifest_path.clone();
        for group in groups.into_iter().filter(|g| !g.is_empty()) {
            let store = Arc::clone(self.engine.store());
            let predicate = predicate.clone();
            let data_root = data_root.clone();
            let manifest_path = manifest_path.clone();
            let group = Arc::new(group);
            dag.add_task(move |ctx| {
                let mut actions = Vec::new();
                let mut deleted = 0u64;
                for cell in group.iter() {
                    let Some(outcome) = bewrite::delete_matching(&*store, cell, &predicate)
                        .map_err(exec_to_task)?
                    else {
                        continue;
                    };
                    let dv_path = format!(
                        "{data_root}/dv/{}-t{txn_id}-s{stmt}-a{}.dv",
                        file_stem(&cell.file),
                        ctx.attempt
                    );
                    bewrite::write_delete_vector(&*store, &dv_path, &outcome.merged, stamp)
                        .map_err(exec_to_task)?;
                    if let Some(old) = &cell.dv_path {
                        actions.push(ManifestAction::remove_dv(cell.file.clone(), old.clone()));
                    }
                    actions.push(ManifestAction::add_dv(
                        cell.file.clone(),
                        dv_path,
                        outcome.merged.cardinality() as u64,
                    ));
                    deleted += outcome.newly_deleted;
                }
                let block = BlockId::new(format!("del-s{stmt}-t{}-a{}", ctx.task, ctx.attempt));
                store
                    .stage_block(
                        &manifest_path,
                        block.clone(),
                        Manifest::encode_actions(&actions),
                        stamp,
                    )
                    .map_err(store_to_task)?;
                Ok((vec![block], actions, deleted))
            });
        }
        let results = self.engine.pool().run_dag(dag, WorkloadClass::Write)?;
        let mut deleted = 0;
        let mut staged = 0u64;
        {
            let t = self.tables.get_mut(&tid).expect("state loaded above");
            for (ids, actions, n) in results {
                staged += ids.len() as u64;
                deleted += n;
                for action in &actions {
                    t.delta.apply(&t.base, action)?;
                }
            }
            t.staged_blocks += staged;
        }
        self.blocks_staged += staged;
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
        let label = format!("update {table}");
        let n = self.run_profiled(&label, |t| t.update_inner(table, assignments, predicate))?;
        if let Some(p) = self.last_profile.as_mut() {
            p.rows_out = n;
        }
        Ok(n)
    }

    fn update_inner(
        &mut self,
        table: &str,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> PolarisResult<u64> {
        self.stmt += 1;
        let tid = self.table_state(table)?;
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
        let stamp = self.stamp();
        let stmt = self.stmt;
        let txn_id = self.ctxn.id.0;
        let data_root = t.meta.data_root.clone();
        let manifest_path = t.manifest_path.clone();
        let writer = config.writer;
        let assignments: Arc<Vec<(String, Expr)>> = Arc::new(assignments.to_vec());
        let predicate = predicate.cloned();
        for group in groups.into_iter().filter(|g| !g.is_empty()) {
            let store = Arc::clone(self.engine.store());
            let predicate = predicate.clone();
            let data_root = data_root.clone();
            let manifest_path = manifest_path.clone();
            let schema = schema.clone();
            let assignments = Arc::clone(&assignments);
            let group = Arc::new(group);
            dag.add_task(move |ctx| {
                let mut actions = Vec::new();
                let mut updated = 0u64;
                for cell in group.iter() {
                    // Rows to rewrite: live rows matching the predicate.
                    let Some(live) = bewrite::live_matching_rows(&*store, cell, predicate.as_ref())
                        .map_err(exec_to_task)?
                    else {
                        continue;
                    };
                    // Delete them from the original file.
                    let pred = predicate.clone().unwrap_or_else(|| Expr::lit(true));
                    let Some(outcome) =
                        bewrite::delete_matching(&*store, cell, &pred).map_err(exec_to_task)?
                    else {
                        continue;
                    };
                    let dv_path = format!(
                        "{data_root}/dv/{}-t{txn_id}-s{stmt}-a{}.dv",
                        file_stem(&cell.file),
                        ctx.attempt
                    );
                    bewrite::write_delete_vector(&*store, &dv_path, &outcome.merged, stamp)
                        .map_err(exec_to_task)?;
                    if let Some(old) = &cell.dv_path {
                        actions.push(ManifestAction::remove_dv(cell.file.clone(), old.clone()));
                    }
                    actions.push(ManifestAction::add_dv(
                        cell.file.clone(),
                        dv_path,
                        outcome.merged.cardinality() as u64,
                    ));
                    // Re-insert the updated versions.
                    let new_rows = apply_assignments(&live, &schema, &assignments)
                        .map_err(|e| TaskError::fatal(e.to_string()))?;
                    let path = format!(
                        "{data_root}/data/t{txn_id}-s{stmt}-u{}-a{}.pcf",
                        file_stem(&cell.file),
                        ctx.attempt
                    );
                    let written =
                        bewrite::write_data_file(&*store, &path, &new_rows, writer, stamp)
                            .map_err(exec_to_task)?;
                    actions.push(add_file_action(
                        written.path,
                        written.rows,
                        written.bytes,
                        cell.distribution,
                        &new_rows,
                    ));
                    updated += new_rows.num_rows() as u64;
                }
                let block = BlockId::new(format!("upd-s{stmt}-t{}-a{}", ctx.task, ctx.attempt));
                store
                    .stage_block(
                        &manifest_path,
                        block.clone(),
                        Manifest::encode_actions(&actions),
                        stamp,
                    )
                    .map_err(store_to_task)?;
                Ok((vec![block], actions, updated))
            });
        }
        let results = self.engine.pool().run_dag(dag, WorkloadClass::Write)?;
        let mut updated = 0;
        let mut staged = 0u64;
        {
            let t = self.tables.get_mut(&tid).expect("state loaded above");
            for (ids, actions, n) in results {
                staged += ids.len() as u64;
                updated += n;
                for action in &actions {
                    t.delta.apply(&t.base, action)?;
                }
            }
            t.staged_blocks += staged;
        }
        self.blocks_staged += staged;
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
        self.stmt += 1;
        let tid = self.table_state(table)?;
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
        let stmt = polaris_sql::parse(sql)?;
        match stmt {
            Statement::Select(sel) => {
                let plan = polaris_sql::plan_select(&sel)?;
                let label = format!("select {}", plan.table);
                Ok(self
                    .run_profiled(&label, |t| execute_select(t, &plan))?
                    .batch)
            }
            _ => Err(PolarisError::invalid("query() requires a SELECT statement")),
        }
    }

    /// Execute one parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> PolarisResult<QueryResult> {
        self.check_active()?;
        match stmt {
            Statement::Select(sel) => {
                let plan = polaris_sql::plan_select(sel)?;
                let label = format!("select {}", plan.table);
                self.run_profiled(&label, |t| execute_select(t, &plan))
            }
            Statement::Insert { table, rows } => {
                let tid = self.table_state(table)?;
                let schema = self.tables[&tid].schema.clone();
                let coerced = coerce_rows(&schema, rows)?;
                let batch = RecordBatch::from_rows(schema, &coerced)
                    .map_err(|e| PolarisError::invalid(e.to_string()))?;
                let n = self.insert(table, &batch)?;
                Ok(QueryResult::affected(n))
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let assignments = assignments
                    .iter()
                    .map(|(c, e)| Ok((c.clone(), polaris_sql::lower_expr(e)?)))
                    .collect::<PolarisResult<Vec<_>>>()?;
                let predicate = predicate
                    .as_ref()
                    .map(polaris_sql::lower_expr)
                    .transpose()?;
                let n = self.update(table, &assignments, predicate.as_ref())?;
                Ok(QueryResult::affected(n))
            }
            Statement::Delete { table, predicate } => {
                let predicate = predicate
                    .as_ref()
                    .map(polaris_sql::lower_expr)
                    .transpose()?;
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
        let stamp = self.stamp();
        let stmt = self.stmt;
        let store = Arc::clone(self.engine.store());
        let t = self.tables.get_mut(&tid).expect("state loaded");
        let actions = t.delta.to_actions();
        let chunk_size = actions.len().div_ceil(MAX_WRITE_TASKS).max(1);
        let mut ids = Vec::new();
        for (k, chunk) in actions.chunks(chunk_size).enumerate() {
            let id = BlockId::new(format!("rw-s{stmt}-k{k}"));
            store.stage_block(
                &t.manifest_path,
                id.clone(),
                Manifest::encode_actions(chunk),
                stamp,
            )?;
            ids.push(id);
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
    /// The final `commit_block_list` publication of every dirty table's
    /// manifest blob is kicked off on Write-class DCP nodes *first*, then
    /// overlapped with the catalog work: the write sets are recorded
    /// (step 1) and first-committer-wins validation runs (step 2) while
    /// the uploads are in flight. The uploads are joined in the commit
    /// protocol's *prepare* stage — after validation passes, before the
    /// sequencer assigns a timestamp — so a published sequence always
    /// points at fully-committed manifest blobs, a slow store round-trip
    /// never holds the global sequencer, and a validation conflict skips
    /// the join and discards the blobs instead (Block-Blob staged blocks
    /// were never visible). On conflict everything rolls back and
    /// [`PolarisError::Conflict`] is returned — the transaction can be
    /// retried from scratch.
    pub fn commit(mut self) -> PolarisResult<CommitInfo> {
        self.check_active()?;
        self.finished = true;
        self.engine
            .txn_stat_update(self.ctxn.id.0, |s| s.phase = "committing");
        let commit_span = self.tracer.span_at("txn.commit", self.root_span);
        let granularity = self.engine.config().conflict_granularity;
        let mut manifests: Vec<(TableId, String)> = Vec::new();
        let mut write_sets: Vec<(TableId, Vec<String>)> = Vec::new();
        for (tid, t) in &self.tables {
            if t.delta.is_empty() {
                continue;
            }
            manifests.push((*tid, t.manifest_path.as_str().to_owned()));
            let modified: Vec<String> = t.delta.modified_base_files().map(str::to_owned).collect();
            if !modified.is_empty() {
                write_sets.push((*tid, modified));
            }
        }
        if manifests.is_empty() {
            // Read-only (or DDL-only): plain catalog commit, no sequence.
            // Statements may still have staged manifest blocks (e.g. a
            // DELETE that matched nothing) — those blobs will never be
            // published, so discard them here.
            let result = self.engine.catalog().commit(&mut self.ctxn);
            self.discard_staged_manifests(&[]);
            drop(commit_span);
            self.end_root(if result.is_ok() {
                "committed"
            } else {
                "aborted"
            });
            result?;
            self.engine.maybe_checkpoint_commit_log();
            return Ok(CommitInfo {
                sequence: None,
                blocks_committed: 0,
            });
        }
        // Start the manifest publications now; validation runs while the
        // store round-trips are in flight.
        let mut uploads = Some(self.spawn_manifest_uploads(&manifests));
        let mut upload_span = Some(
            self.tracer
                .span_at("txn.commit.upload_overlap", self.root_span),
        );
        for (tid, modified) in &write_sets {
            if let Err(e) =
                self.engine
                    .catalog()
                    .record_write_set(&mut self.ctxn, *tid, modified, granularity)
            {
                let _ = join_uploads(&mut uploads);
                drop(upload_span.take());
                self.discard_staged_manifests(&[]);
                drop(commit_span);
                self.end_root("aborted");
                return Err(e.into());
            }
        }
        let mut blocks_committed = 0u64;
        let mut upload_err: Option<PolarisError> = None;
        let outcome = {
            let uploads = &mut uploads;
            let upload_span = &mut upload_span;
            let blocks_committed = &mut blocks_committed;
            let upload_err = &mut upload_err;
            self.engine
                .catalog()
                .commit_write_prepared(&mut self.ctxn, &manifests, move || {
                    let joined = join_uploads(uploads);
                    drop(upload_span.take());
                    match joined {
                        Some(Ok(n)) => {
                            *blocks_committed = n;
                            Ok(())
                        }
                        Some(Err(e)) => {
                            *upload_err = Some(e);
                            Err(polaris_catalog::CatalogError::CommitLogFailure {
                                detail: "pipelined manifest upload failed".to_owned(),
                            })
                        }
                        // The handle is always live when prepare runs; the
                        // abort paths are the only other joiners.
                        None => Ok(()),
                    }
                })
        };
        match outcome {
            Ok(outcome) => {
                // Tables the statements touched but the commit did not
                // publish (empty net delta) leave staged-only blobs behind.
                self.discard_staged_manifests(&manifests);
                drop(commit_span);
                self.end_root("committed");
                self.engine.maybe_checkpoint_commit_log();
                Ok(CommitInfo {
                    sequence: Some(SequenceId(outcome.commit_ts.0)),
                    blocks_committed,
                })
            }
            Err(e) => {
                // Validation conflict (prepare never ran) or upload
                // failure: join whatever is still in flight before
                // discarding the blobs, so a retried task cannot re-create
                // one after the delete.
                let _ = join_uploads(&mut uploads);
                drop(upload_span.take());
                self.discard_staged_manifests(&[]);
                drop(commit_span);
                self.end_root("aborted");
                match upload_err.take() {
                    Some(ue) => Err(ue),
                    None => Err(e.into()),
                }
            }
        }
    }

    /// Start the final `commit_block_list` of every dirty table as a
    /// Write-class DAG running concurrently with commit validation. Each
    /// task publishes one table's accumulated block list and reports how
    /// many blocks it committed; `commit_block_list` is idempotent, so
    /// retried attempts after a transient store fault are safe.
    fn spawn_manifest_uploads(&self, manifests: &[(TableId, String)]) -> DagHandle<u64> {
        let stamp = self.stamp();
        let mut dag: WorkflowDag<u64> = WorkflowDag::with_capacity(manifests.len());
        for (tid, _) in manifests {
            let t = &self.tables[tid];
            let store = Arc::clone(self.engine.store());
            let path = t.manifest_path.clone();
            let blocks = t.blocks.clone();
            dag.add_task(move |_ctx| {
                let _alloc =
                    polaris_obs::AllocScope::enter(polaris_obs::AllocPhase::ManifestUpload);
                store
                    .commit_block_list(&path, &blocks, stamp)
                    .map_err(store_to_task)?;
                Ok(blocks.len() as u64)
            });
        }
        self.engine.pool().run_dag_async(dag, WorkloadClass::Write)
    }

    /// Delete per-transaction manifest blobs that will never be
    /// published: every table with staged blocks not listed in `keep`.
    /// Deleting the blob drops its staged block set too (Block-Blob
    /// semantics), so aborted and rolled-back transactions stop leaving
    /// orphaned manifests for GC to chase; each discarded blob counts
    /// into the engine-wide `store.orphaned_manifests` counter.
    fn discard_staged_manifests(&mut self, keep: &[(TableId, String)]) {
        let store = Arc::clone(self.engine.store());
        let orphaned = self.engine.metrics().counter("store.orphaned_manifests");
        for (tid, t) in &mut self.tables {
            if t.staged_blocks == 0 || keep.iter().any(|(k, _)| k == tid) {
                continue;
            }
            t.staged_blocks = 0;
            t.blocks.clear();
            if store.delete(&t.manifest_path).is_ok() {
                orphaned.inc();
            }
        }
    }

    /// Roll back: private changes vanish; staged manifest blobs are
    /// discarded eagerly (data files are reclaimed by GC).
    pub fn rollback(mut self) {
        if !self.finished {
            self.discard_staged_manifests(&[]);
            self.engine.catalog().abort(&mut self.ctxn);
            self.finished = true;
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
        // behind `polaris.transactions` is removed exactly once here.
        self.engine.txn_stat_end(self.ctxn.id.0);
        // Hand the table map and scan meter back to the engine so the
        // next `begin` reuses their capacity. `recycle_txn_context`
        // clears the map first, releasing base snapshot refs.
        self.engine.recycle_txn_context(
            std::mem::take(&mut self.tables),
            Arc::clone(&self.scan_meter),
        );
    }
}

/// Join the pipelined upload DAG if still in flight, returning the total
/// number of blocks published (or the first task failure). `None` when
/// another path already joined it.
fn join_uploads(handle: &mut Option<DagHandle<u64>>) -> Option<PolarisResult<u64>> {
    let h = handle.take()?;
    Some(
        h.join()
            .map(|counts| counts.into_iter().sum())
            .map_err(PolarisError::from),
    )
}

/// Group `items` into at most `max` chunks of near-equal size.
fn chunk_evenly<T>(items: Vec<T>, max: usize) -> Vec<Vec<T>> {
    assert!(max > 0);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let chunks = n.min(max);
    let mut out: Vec<Vec<T>> = (0..chunks).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        out[i % chunks].push(item);
    }
    out
}

fn file_stem(path: &str) -> String {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.trim_end_matches(".pcf").to_owned()
}

fn exec_to_task(e: polaris_exec::ExecError) -> TaskError {
    match e {
        polaris_exec::ExecError::Store(_) => TaskError::transient(e.to_string()),
        other => TaskError::fatal(other.to_string()),
    }
}

fn store_to_task(e: polaris_store::StoreError) -> TaskError {
    TaskError::transient(e.to_string())
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
    path: String,
    rows: u64,
    bytes: u64,
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
        path,
        rows,
        bytes,
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
    fn chunk_evenly_shapes() {
        assert_eq!(chunk_evenly::<i32>(vec![], 4).len(), 0);
        let chunks = chunk_evenly(vec![1, 2, 3, 4, 5], 2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len() + chunks[1].len(), 5);
        let chunks = chunk_evenly(vec![1, 2], 8);
        assert_eq!(chunks.len(), 2);
    }

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
