//! Sessions: the T-SQL surface with auto-commit and explicit transactions.

use crate::schema_json::schema_to_json;
use crate::{PolarisEngine, PolarisError, PolarisResult, QueryResult, SequenceId, Transaction};
use polaris_catalog::IsolationLevel;
use polaris_columnar::{DataType, Field, RecordBatch, Schema, Value};
use polaris_obs::{
    build_spans, AllocPhase, AllocScope, QueryProfile, TxnProfile, ValidationOutcome,
};
use polaris_sql::Statement;
use std::collections::VecDeque;
use std::sync::Arc;

/// How many [`QueryProfile`]s a session retains in its history ring.
const PROFILE_HISTORY_CAP: usize = 64;

/// How many trailing trace events the session dumps when a transaction
/// aborts at commit time.
const POST_MORTEM_EVENTS: usize = 64;

/// What one executed statement produced.
#[derive(Debug, Clone)]
pub enum StatementOutcome {
    /// A SELECT's rows.
    Rows(RecordBatch),
    /// DML row count.
    Affected(u64),
    /// DDL completed.
    Ddl,
    /// BEGIN TRAN.
    Begun,
    /// COMMIT; carries the assigned sequence for write transactions.
    Committed(Option<SequenceId>),
    /// ROLLBACK.
    RolledBack,
}

/// A user session: executes SQL with auto-commit semantics, or under an
/// explicit `BEGIN … COMMIT` transaction.
///
/// Auto-commit DML that loses its optimistic validation is retried up to
/// `EngineConfig::auto_retries` times with a fresh snapshot — the paper's
/// "the user transaction succeeds … and is retried otherwise" (§3).
/// Explicit transactions are *not* auto-retried: the conflict error
/// surfaces so the application can re-run its logic.
pub struct Session {
    engine: Arc<PolarisEngine>,
    isolation: IsolationLevel,
    current: Option<Transaction>,
    /// Shared with its entry in `profile_history`.
    last_profile: Option<Arc<QueryProfile>>,
    last_txn_profile: Option<TxnProfile>,
    profile_history: VecDeque<Arc<QueryProfile>>,
    last_post_mortem: Option<String>,
}

impl Session {
    pub(crate) fn new(engine: Arc<PolarisEngine>) -> Self {
        Session {
            engine,
            isolation: IsolationLevel::default(),
            current: None,
            last_profile: None,
            last_txn_profile: None,
            profile_history: VecDeque::new(),
            last_post_mortem: None,
        }
    }

    /// Structured accounting for the most recently executed SELECT or DML
    /// statement. Auto-commit statements resolve their validation outcome;
    /// statements inside a still-open transaction report
    /// [`Pending`](ValidationOutcome::Pending).
    pub fn last_profile(&self) -> Option<&QueryProfile> {
        self.last_profile.as_deref()
    }

    /// Accounting for the most recently resolved (committed, conflicted,
    /// or rolled back) transaction.
    pub fn last_txn_profile(&self) -> Option<&TxnProfile> {
        self.last_txn_profile.as_ref()
    }

    /// Profiles of recently executed statements, oldest first. Bounded to
    /// the last [`PROFILE_HISTORY_CAP`] statements.
    pub fn profile_history(&self) -> impl Iterator<Item = &QueryProfile> {
        self.profile_history.iter().map(|p| &**p)
    }

    /// Post-mortem trace dump captured when the most recent commit-time
    /// abort happened (tracing must be enabled).
    pub fn last_post_mortem(&self) -> Option<&str> {
        self.last_post_mortem.as_deref()
    }

    /// Record a statement profile as both `last_profile` and an entry in
    /// the bounded history ring; statements over the engine's slow
    /// threshold also land in the shared slow log with their span tree.
    fn record_profile(&mut self, profile: Option<QueryProfile>, txn_id: u64) {
        let _alloc = AllocScope::enter(AllocPhase::ProfileBookkeeping);
        self.last_profile = profile.map(Arc::new);
        if let Some(p) = &self.last_profile {
            if self.profile_history.len() == PROFILE_HISTORY_CAP {
                self.profile_history.pop_front();
            }
            self.profile_history.push_back(Arc::clone(p));
            if self.engine.slow_log().is_slow(p.wall_ns) {
                self.engine
                    .slow_log()
                    .record_if_slow(crate::telemetry::slow_statement_record(
                        &self.engine,
                        p,
                        txn_id,
                    ));
            }
        }
    }

    /// Commit `txn`, timing the commit protocol and recording both the
    /// statement and transaction profiles with the validation outcome.
    fn commit_recorded(&mut self, mut txn: Transaction) -> PolarisResult<Option<SequenceId>> {
        let txn_id = txn.id();
        let mut profile = txn.last_profile.take();
        let mut txn_profile = txn.txn_profile_snapshot();
        let alloc0 = polaris_obs::alloc::totals();
        let start = std::time::Instant::now();
        let result = txn.commit();
        txn_profile.commit_wall_ns = start.elapsed().as_nanos() as u64;
        let _alloc = AllocScope::enter(AllocPhase::ProfileBookkeeping);
        let alloc1 = polaris_obs::alloc::totals();
        txn_profile.commit_alloc_bytes = alloc1.alloc_bytes.saturating_sub(alloc0.alloc_bytes);
        txn_profile.commit_allocs = alloc1.allocs.saturating_sub(alloc0.allocs);
        let validation = match &result {
            Ok(info) if info.sequence.is_some() => ValidationOutcome::Committed,
            Ok(_) => ValidationOutcome::ReadOnly,
            Err(e) => conflict_outcome(e),
        };
        txn_profile.validation = validation;
        // Blocks are published at commit time, so the committed count only
        // exists now — patch it into the transaction profile and attribute
        // it to the statement that triggered the commit.
        if let Ok(info) = &result {
            txn_profile.blocks_committed = info.blocks_committed;
        }
        if let Some(p) = profile.as_mut() {
            p.validation = validation;
            p.phase("commit", txn_profile.commit_wall_ns);
            p.wall_ns += txn_profile.commit_wall_ns;
            p.alloc_bytes += txn_profile.commit_alloc_bytes;
            p.allocs += txn_profile.commit_allocs;
            p.blocks_committed = txn_profile.blocks_committed;
        }
        if result.is_err() && self.engine.tracer().is_enabled() {
            self.last_post_mortem = Some(self.engine.tracer().post_mortem(POST_MORTEM_EVENTS));
        }
        if self.engine.slow_log().is_slow(txn_profile.commit_wall_ns) {
            self.engine
                .slow_log()
                .record_if_slow(polaris_obs::SlowRecord {
                    kind: "transaction".to_owned(),
                    txn: txn_id,
                    statement: format!(
                        "commit of {} statements ({} blocks staged)",
                        txn_profile.statements, txn_profile.blocks_staged
                    ),
                    wall_ns: txn_profile.commit_wall_ns,
                    phases_ns: vec![("commit", txn_profile.commit_wall_ns)],
                    validation: format!("{:?}", txn_profile.validation),
                    alloc_bytes: txn_profile.commit_alloc_bytes,
                    allocs: txn_profile.commit_allocs,
                    wait_ns: 0,
                    span_tree: String::new(),
                    // Commit summaries aggregate many statements; 0 marks
                    // "no single statement" for the slow_log join column.
                    query_id: 0,
                    at_unix_ms: crate::telemetry::unix_now_ms(),
                });
        }
        self.record_profile(profile, txn_id);
        self.last_txn_profile = Some(txn_profile);
        result.map(|info| info.sequence)
    }

    /// Override the isolation level for subsequently started transactions
    /// (§4.4.2).
    pub fn set_isolation(&mut self, isolation: IsolationLevel) {
        self.isolation = isolation;
    }

    /// The engine.
    pub fn engine(&self) -> &Arc<PolarisEngine> {
        &self.engine
    }

    /// Is an explicit transaction open?
    pub fn in_transaction(&self) -> bool {
        self.current.is_some()
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> PolarisResult<StatementOutcome> {
        let stmt = polaris_sql::parse(sql)?;
        self.execute_parsed(&stmt)
    }

    /// Execute a `;`-separated script, stopping at the first error.
    pub fn execute_script(&mut self, sql: &str) -> PolarisResult<Vec<StatementOutcome>> {
        let stmts = polaris_sql::parse_many(sql)?;
        stmts.iter().map(|s| self.execute_parsed(s)).collect()
    }

    /// Convenience: run a SELECT and return its rows.
    pub fn query(&mut self, sql: &str) -> PolarisResult<RecordBatch> {
        match self.execute(sql)? {
            StatementOutcome::Rows(batch) => Ok(batch),
            _ => Err(PolarisError::invalid("statement did not produce rows")),
        }
    }

    fn execute_parsed(&mut self, stmt: &Statement) -> PolarisResult<StatementOutcome> {
        let _alloc = AllocScope::enter(AllocPhase::StatementDispatch);
        match stmt {
            Statement::Begin => {
                if self.current.is_some() {
                    return Err(PolarisError::invalid("transaction already open"));
                }
                self.current = Some(Transaction::begin(Arc::clone(&self.engine), self.isolation));
                Ok(StatementOutcome::Begun)
            }
            Statement::Commit => {
                let txn = self
                    .current
                    .take()
                    .ok_or_else(|| PolarisError::invalid("no open transaction"))?;
                let sequence = self.commit_recorded(txn)?;
                Ok(StatementOutcome::Committed(sequence))
            }
            Statement::Rollback => {
                let txn = self
                    .current
                    .take()
                    .ok_or_else(|| PolarisError::invalid("no open transaction"))?;
                let mut txn_profile = txn.txn_profile_snapshot();
                txn_profile.validation = ValidationOutcome::RolledBack;
                txn.rollback();
                self.last_txn_profile = Some(txn_profile);
                Ok(StatementOutcome::RolledBack)
            }
            Statement::CreateTable { name, columns } => {
                if self.current.is_some() {
                    return Err(PolarisError::unsupported(
                        "DDL inside explicit transactions",
                    ));
                }
                let fields: Vec<Field> = columns
                    .iter()
                    .map(|c| Field {
                        name: c.name.clone(),
                        data_type: c.data_type,
                        nullable: c.nullable,
                    })
                    .collect();
                self.engine.create_table(name, &Schema::new(fields))?;
                Ok(StatementOutcome::Ddl)
            }
            Statement::DropTable { name } => {
                if self.current.is_some() {
                    return Err(PolarisError::unsupported(
                        "DDL inside explicit transactions",
                    ));
                }
                self.engine.drop_table(name)?;
                Ok(StatementOutcome::Ddl)
            }
            Statement::ExplainAnalyze(inner) => self.explain_analyze(inner),
            Statement::ShowEngineHealth => self.show_engine_health(),
            Statement::ShowTables { system_only } => self.show_tables(*system_only),
            dml => {
                if let Some(txn) = self.current.as_mut() {
                    let result = txn.execute_statement(dml);
                    let txn_id = txn.id();
                    let profile = txn.last_profile().cloned();
                    self.record_profile(profile, txn_id);
                    return Ok(outcome_of(result?));
                }
                // Auto-commit with conflict retries.
                let retries = self.engine.config().auto_retries;
                let mut attempt = 0;
                loop {
                    let mut txn = Transaction::begin(Arc::clone(&self.engine), self.isolation);
                    match txn.execute_statement(dml) {
                        Ok(r) => match self.commit_recorded(txn) {
                            Ok(_) => return Ok(outcome_of(r)),
                            Err(e) if e.is_retryable_conflict() && attempt < retries => {
                                attempt += 1;
                            }
                            Err(e) => return Err(e),
                        },
                        Err(e) => {
                            let txn_id = txn.id();
                            let profile = txn.last_profile().cloned();
                            self.record_profile(profile, txn_id);
                            if e.is_retryable_conflict() && attempt < retries {
                                attempt += 1;
                                continue;
                            }
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Execute the inner statement of `EXPLAIN ANALYZE` and render its trace
    /// span tree plus a profile summary as a single-column result set.
    fn explain_analyze(&mut self, inner: &Statement) -> PolarisResult<StatementOutcome> {
        match inner {
            Statement::Select(_)
            | Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. } => {}
            _ => {
                return Err(PolarisError::unsupported(
                    "EXPLAIN ANALYZE of DDL or transaction control",
                ))
            }
        }
        if !self.engine.tracer().is_enabled() {
            return Err(PolarisError::invalid(
                "EXPLAIN ANALYZE requires tracing (EngineConfig::trace_capacity > 0)",
            ));
        }
        self.execute_parsed(inner)?;
        let profile = self
            .last_profile
            .clone()
            .ok_or_else(|| PolarisError::invalid("statement produced no profile"))?;
        let events = self.engine.tracer().events();
        let spans = build_spans(&events);
        // Inside an explicit transaction, render just this statement's
        // subtree; in auto-commit mode climb to the enclosing `txn` root so
        // the commit-protocol spans show too.
        let root = if self.in_transaction() {
            profile.trace_span
        } else {
            spans
                .get(&profile.trace_span)
                .map(|s| if s.parent != 0 { s.parent } else { s.id })
                .unwrap_or(profile.trace_span)
        };
        let mut lines: Vec<String> = self
            .engine
            .tracer()
            .render_span_tree(root)
            .lines()
            .map(str::to_owned)
            .collect();
        lines.push(String::new());
        lines.push(format!(
            "statement: {} ({:.3} ms wall)",
            profile.statement,
            profile.wall_ns as f64 / 1e6
        ));
        for (phase, ns) in &profile.phases_ns {
            lines.push(format!("  phase {phase}: {:.3} ms", *ns as f64 / 1e6));
        }
        lines.push(format!(
            "files: {} scanned, {} pruned; row groups: {} scanned, {} pruned",
            profile.files_scanned,
            profile.files_pruned,
            profile.row_groups_scanned,
            profile.row_groups_pruned
        ));
        lines.push(format!(
            "rows: {} in, {} out; bytes read: {}",
            profile.rows_in, profile.rows_out, profile.bytes_read
        ));
        lines.push(format!(
            "morsels: {} scheduled, {} stolen; prefetch hits: {}; late-mat chunks skipped: {}",
            profile.morsels_scheduled,
            profile.morsels_stolen,
            profile.prefetch_hits,
            profile.late_materialized_chunks_skipped
        ));
        lines.push(format!(
            "cache: {} hits, {} misses; tasks: {} attempts, {} retries",
            profile.cache_hits, profile.cache_misses, profile.task_attempts, profile.task_retries
        ));
        if polaris_obs::alloc::tracking_enabled() {
            let phases = profile
                .alloc_phases
                .iter()
                .map(|(phase, bytes, allocs)| format!("{phase} {bytes} B/{allocs}"))
                .collect::<Vec<_>>()
                .join(", ");
            lines.push(format!(
                "memory: {} bytes in {} allocs ({}); lock waits: {:.3} ms",
                profile.alloc_bytes,
                profile.allocs,
                if phases.is_empty() {
                    "no phase activity"
                } else {
                    &phases
                },
                profile.wait_ns as f64 / 1e6
            ));
        } else {
            lines.push(format!(
                "memory: allocation tracking off (build with --features track-alloc); lock waits: {:.3} ms",
                profile.wait_ns as f64 / 1e6
            ));
        }
        lines.push(format!("validation: {:?}", profile.validation));
        let schema = Schema::new(vec![Field {
            name: "plan".to_owned(),
            data_type: DataType::Utf8,
            nullable: false,
        }]);
        let rows: Vec<Vec<Value>> = lines.into_iter().map(|l| vec![Value::Str(l)]).collect();
        let batch = RecordBatch::from_rows(schema, &rows)?;
        Ok(StatementOutcome::Rows(batch))
    }

    /// Render the engine's continuous-telemetry view — status, firing
    /// watchdogs, recent health events, slow-log top entries, shard lock
    /// pressure and lane occupancy — as a single-column result set.
    fn show_engine_health(&mut self) -> PolarisResult<StatementOutcome> {
        let report = self.engine.health_report();
        let mut lines = Vec::new();
        lines.push(format!("status: {}", report.status));
        lines.push(format!(
            "uptime: {} s (version {}, git {})",
            report.uptime_seconds, report.build_version, report.build_git
        ));
        lines.push(format!(
            "harvester: {} ticks @ {} ms{}",
            report.harvester_ticks,
            report.tick_ms,
            if report.tick_ms == 0 { " (manual)" } else { "" }
        ));
        lines.push(format!(
            "endpoint: {}",
            report.listen.as_deref().unwrap_or("none")
        ));
        lines.push(format!(
            "memory: rss {} MiB; heap live {} bytes{}",
            report.rss_bytes / (1024 * 1024),
            report.alloc_live_bytes,
            if report.alloc_tracking {
                ""
            } else {
                " (tracking off)"
            }
        ));
        lines.push(format!(
            "active txns: {} (oldest txn {}, {} ms); group-commit queue: {}",
            report.active_txns,
            report.oldest_txn_id,
            report.oldest_txn_ms,
            report.group_queue_depth
        ));
        match &report.recovery {
            Some(r) => lines.push(format!(
                "durability: commit log on; replayed watermark ts {} \
                 (checkpoint ts {}, {} commits replayed, {} torn discarded, \
                 {} orphans swept, {:.1} ms)",
                r.recovered_clock,
                r.checkpoint_clock,
                r.replayed_commits,
                r.torn_records,
                r.orphans_collected,
                r.wall_ns as f64 / 1e6
            )),
            None => lines.push("durability: commit log off".to_owned()),
        }
        if report.firing.is_empty() {
            lines.push("firing: none".to_owned());
        } else {
            lines.push(format!("firing: {}", report.firing.join(", ")));
        }
        if !report.events.is_empty() {
            lines.push(String::new());
            lines.push(format!("health events ({}):", report.events.len()));
            for e in &report.events {
                lines.push(format!(
                    "  [tick {} +{} ms] {}: {}",
                    e.tick, e.at_ms, e.rule, e.detail
                ));
            }
        }
        if !report.slow.is_empty() {
            lines.push(String::new());
            lines.push(format!(
                "slow log (threshold {} ms, {} retained):",
                self.engine.slow_log().threshold_ns() / 1_000_000,
                self.engine.slow_log().len()
            ));
            for s in &report.slow {
                lines.push(format!(
                    "  {:.3} ms {} txn {} [{}]: {}",
                    s.wall_ms, s.kind, s.txn, s.validation, s.statement
                ));
            }
        }
        if !report.shard_pressure.is_empty() {
            lines.push(String::new());
            lines.push("commit-shard lock pressure:".to_owned());
            for p in &report.shard_pressure {
                lines.push(format!(
                    "  shard {}: {} holds, p99 {:.3} ms",
                    p.shard,
                    p.holds,
                    p.p99_ns as f64 / 1e6
                ));
            }
        }
        lines.push(String::new());
        lines.push("compute lanes:".to_owned());
        for lane in &report.lanes {
            lines.push(format!(
                "  {}: {}/{} busy",
                lane.class, lane.busy, lane.capacity
            ));
        }
        let schema = Schema::new(vec![Field {
            name: "health".to_owned(),
            data_type: DataType::Utf8,
            nullable: false,
        }]);
        let rows: Vec<Vec<Value>> = lines.into_iter().map(|l| vec![Value::Str(l)]).collect();
        let batch = RecordBatch::from_rows(schema, &rows)?;
        Ok(StatementOutcome::Rows(batch))
    }

    /// `SHOW TABLES` / `SHOW SYSTEM TABLES`: user tables from the catalog
    /// (sorted by name) followed by the `polaris.*` virtual tables, as a
    /// single `table_name` column. `system_only` drops the catalog half.
    fn show_tables(&mut self, system_only: bool) -> PolarisResult<StatementOutcome> {
        if self.current.is_some() {
            // Catalog enumeration runs under its own snapshot, not the
            // open transaction's — reject rather than lie, like DDL.
            return Err(PolarisError::unsupported(
                "SHOW TABLES inside explicit transactions",
            ));
        }
        let mut names: Vec<String> = Vec::new();
        if !system_only {
            let mut ctxn = self.engine.catalog().begin(self.isolation);
            let tables = self.engine.catalog().list_tables(&mut ctxn);
            self.engine.catalog().abort(&mut ctxn);
            let mut user: Vec<String> = tables?.into_iter().map(|m| m.name).collect();
            user.sort();
            names.extend(user);
        }
        names.extend(
            self.engine
                .system_tables()
                .names()
                .iter()
                .map(|n| format!("{}.{n}", polaris_exec::SYSTEM_SCHEMA)),
        );
        let schema = Schema::new(vec![Field {
            name: "table_name".to_owned(),
            data_type: DataType::Utf8,
            nullable: false,
        }]);
        let rows: Vec<Vec<Value>> = names.into_iter().map(|n| vec![Value::Str(n)]).collect();
        let batch = RecordBatch::from_rows(schema, &rows)?;
        Ok(StatementOutcome::Rows(batch))
    }

    /// Create a table from a programmatic schema (bypasses SQL).
    pub fn create_table(&self, name: &str, schema: &Schema) -> PolarisResult<()> {
        self.engine.create_table(name, schema)?;
        Ok(())
    }

    /// Bulk-insert a batch (auto-commit or inside the open transaction).
    pub fn insert_batch(&mut self, table: &str, batch: &RecordBatch) -> PolarisResult<u64> {
        let _alloc = AllocScope::enter(AllocPhase::StatementDispatch);
        if let Some(txn) = self.current.as_mut() {
            let result = txn.insert(table, batch);
            let txn_id = txn.id();
            let profile = txn.last_profile().cloned();
            self.record_profile(profile, txn_id);
            return result;
        }
        let retries = self.engine.config().auto_retries;
        let mut attempt = 0;
        loop {
            let mut txn = Transaction::begin(Arc::clone(&self.engine), self.isolation);
            match txn.insert(table, batch) {
                Ok(n) => match self.commit_recorded(txn) {
                    Ok(_) => return Ok(n),
                    Err(e) if e.is_retryable_conflict() && attempt < retries => attempt += 1,
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    let txn_id = txn.id();
                    let profile = txn.last_profile().cloned();
                    self.record_profile(profile, txn_id);
                    if e.is_retryable_conflict() && attempt < retries {
                        attempt += 1;
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Serialize a schema the way the catalog stores it (useful for
    /// debugging and tests).
    pub fn schema_json(schema: &Schema) -> String {
        schema_to_json(schema)
    }
}

/// Classify a commit-time error into a validation outcome.
fn conflict_outcome(e: &PolarisError) -> ValidationOutcome {
    match e {
        PolarisError::Conflict { detail } if detail.contains("serialization") => {
            ValidationOutcome::SerializationFailure
        }
        PolarisError::Conflict { .. } => ValidationOutcome::WwConflict,
        _ => ValidationOutcome::RolledBack,
    }
}

fn outcome_of(result: QueryResult) -> StatementOutcome {
    match result.rows_affected {
        Some(n) => StatementOutcome::Affected(n),
        None => StatementOutcome::Rows(result.batch),
    }
}
