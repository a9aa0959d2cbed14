//! Sessions: the T-SQL surface with auto-commit and explicit transactions.

use crate::schema_json::schema_to_json;
use crate::{PolarisEngine, PolarisError, PolarisResult, QueryResult, SequenceId, Transaction};
use polaris_catalog::IsolationLevel;
use polaris_columnar::{DataType, Field, RecordBatch, Schema, Value};
use polaris_obs::{
    alloc, build_spans, Phase, PhaseScope, QueryProfile, TxnProfile, ValidationOutcome,
};
use polaris_sql::Statement;
use std::sync::Arc;

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
    last_profile: Option<QueryProfile>,
    last_txn_profile: Option<TxnProfile>,
}

impl Session {
    pub(crate) fn new(engine: Arc<PolarisEngine>) -> Self {
        Session {
            engine,
            isolation: IsolationLevel::default(),
            current: None,
            last_profile: None,
            last_txn_profile: None,
        }
    }

    /// Structured accounting for the most recently executed SELECT or DML
    /// statement. Auto-commit statements resolve their validation outcome;
    /// statements inside a still-open transaction report
    /// [`Pending`](ValidationOutcome::Pending).
    pub fn last_profile(&self) -> Option<&QueryProfile> {
        self.last_profile.as_ref()
    }

    /// Accounting for the most recently resolved (committed, conflicted,
    /// or rolled back) transaction.
    pub fn last_txn_profile(&self) -> Option<&TxnProfile> {
        self.last_txn_profile.as_ref()
    }

    /// Record a statement profile as `last_profile`; statements over the
    /// engine's slow threshold also land in the shared slow log.
    fn record_profile(&mut self, profile: Option<QueryProfile>, txn_id: u64) {
        let _alloc = PhaseScope::enter(Phase::ProfileBookkeeping);
        self.last_profile = profile;
        if let Some(p) = &self.last_profile {
            self.engine
                .slow_log()
                .record_if_slow("statement", txn_id, p);
        }
    }

    /// Commit `txn`, timing the commit protocol and recording both the
    /// statement and transaction profiles with the validation outcome.
    fn commit_recorded(&mut self, mut txn: Transaction) -> PolarisResult<Option<SequenceId>> {
        let txn_id = txn.id();
        let mut profile = txn.last_profile.take();
        let mut txn_profile = txn.txn_profile_snapshot();
        let phases0 = alloc::phase_totals();
        let start = std::time::Instant::now();
        let result = txn.commit();
        txn_profile.commit_wall_ns = start.elapsed().as_nanos() as u64;
        let _alloc = PhaseScope::enter(Phase::ProfileBookkeeping);
        txn_profile.commit_phases = alloc::phase_delta(&phases0, &alloc::phase_totals());
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
            p.commit_ns = txn_profile.commit_wall_ns;
            p.wall_ns += txn_profile.commit_wall_ns;
            for (phase, commit) in p.phases.iter_mut().zip(txn_profile.commit_phases) {
                *phase = *phase + commit;
            }
            p.blocks_committed = txn_profile.blocks_committed;
        }
        if self.engine.slow_log().is_slow(txn_profile.commit_wall_ns) {
            // Commit summaries aggregate many statements: `query_id` 0
            // marks "no single statement" for the slow_log join column.
            let commit = QueryProfile {
                statement: format!(
                    "commit of {} statements ({} blocks staged)",
                    txn_profile.statements, txn_profile.blocks_staged
                ),
                validation,
                phases: txn_profile.commit_phases,
                wall_ns: txn_profile.commit_wall_ns,
                commit_ns: txn_profile.commit_wall_ns,
                ..QueryProfile::default()
            };
            self.engine
                .slow_log()
                .record_if_slow("transaction", txn_id, &commit);
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
        let _alloc = PhaseScope::enter(Phase::StatementDispatch);
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
            Statement::ShowEngineHealth => {
                crate::telemetry::health_text(self).map(StatementOutcome::Rows)
            }
            Statement::ShowTables { system_only } => self.show_tables(*system_only),
            dml => self
                .run_statement(|txn| txn.execute_statement(dml))
                .map(outcome_of),
        }
    }

    /// Run one statement through `op`: inside the open transaction, or as
    /// its own auto-commit transaction, begun afresh and retried on a
    /// retryable conflict up to `auto_retries` times. A statement that
    /// fails records its profile here; a committed one, in
    /// [`commit_recorded`](Self::commit_recorded).
    fn run_statement<R>(
        &mut self,
        mut op: impl FnMut(&mut Transaction) -> PolarisResult<R>,
    ) -> PolarisResult<R> {
        if let Some(txn) = self.current.as_mut() {
            let result = op(txn);
            let txn_id = txn.id();
            let profile = txn.last_profile().cloned();
            self.record_profile(profile, txn_id);
            return result;
        }
        let retries = self.engine.config().auto_retries;
        let mut attempt = 0;
        loop {
            let mut txn = Transaction::begin(Arc::clone(&self.engine), self.isolation);
            let err = match op(&mut txn) {
                Ok(r) => match self.commit_recorded(txn) {
                    Ok(_) => return Ok(r),
                    Err(e) => e,
                },
                Err(e) => {
                    let txn_id = txn.id();
                    let profile = txn.last_profile().cloned();
                    self.record_profile(profile, txn_id);
                    e
                }
            };
            if !err.is_retryable_conflict() || attempt >= retries {
                return Err(err);
            }
            attempt += 1;
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
            .as_ref()
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
        let ms = |ns: u64| ns as f64 / 1e6;
        lines.push(String::new());
        lines.push(format!(
            "statement: {} ({:.3} ms wall)",
            profile.statement,
            ms(profile.wall_ns)
        ));
        lines.push(format!(
            "  phase execute: {:.3} ms",
            ms(profile.wall_ns - profile.commit_ns)
        ));
        if profile.validation != ValidationOutcome::Pending {
            lines.push(format!("  phase commit: {:.3} ms", ms(profile.commit_ns)));
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
            "morsels: {} scheduled, {} stolen; late-mat chunks skipped: {}",
            profile.morsels_scheduled,
            profile.morsels_stolen,
            profile.late_materialized_chunks_skipped
        ));
        lines.push(format!(
            "cache: {} hits, {} misses; tasks: {} attempts, {} retries",
            profile.cache_hits, profile.cache_misses, profile.task_attempts, profile.task_retries
        ));
        // Then one line per phase that allocated or waited, in `Phase` order.
        let totals = profile.totals();
        lines.push(if alloc::tracking_enabled() {
            format!(
                "memory: {} bytes in {} allocs; lock waits: {:.3} ms",
                totals.bytes,
                totals.allocs,
                ms(totals.wait_ns)
            )
        } else {
            format!(
                "memory: allocation tracking off (build with --features track-alloc); lock waits: {:.3} ms",
                ms(totals.wait_ns)
            )
        });
        for (phase, t) in Phase::ALL.iter().zip(&profile.phases) {
            if t.allocs > 0 || t.wait_ns > 0 {
                lines.push(format!(
                    "  {}: {} B in {} allocs, {:.3} ms waited",
                    phase.label(),
                    t.bytes,
                    t.allocs,
                    ms(t.wait_ns)
                ));
            }
        }
        lines.push(format!("validation: {:?}", profile.validation));
        text_rows("plan", lines).map(StatementOutcome::Rows)
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
        text_rows("table_name", names).map(StatementOutcome::Rows)
    }

    /// Create a table from a programmatic schema (bypasses SQL).
    pub fn create_table(&self, name: &str, schema: &Schema) -> PolarisResult<()> {
        self.engine.create_table(name, schema)?;
        Ok(())
    }

    /// Bulk-insert a batch (auto-commit or inside the open transaction).
    pub fn insert_batch(&mut self, table: &str, batch: &RecordBatch) -> PolarisResult<u64> {
        let _alloc = PhaseScope::enter(Phase::StatementDispatch);
        self.run_statement(|txn| txn.insert(table, batch))
    }

    /// Serialize a schema the way the catalog stores it (useful for
    /// debugging and tests).
    pub fn schema_json(schema: &Schema) -> String {
        schema_to_json(schema)
    }
}

/// `lines` as a result set of one non-null text column.
pub(crate) fn text_rows(column: &str, lines: Vec<String>) -> PolarisResult<RecordBatch> {
    let schema = Schema::new(vec![Field {
        name: column.to_owned(),
        data_type: DataType::Utf8,
        nullable: false,
    }]);
    let rows: Vec<Vec<Value>> = lines.into_iter().map(|l| vec![Value::Str(l)]).collect();
    Ok(RecordBatch::from_rows(schema, &rows)?)
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
