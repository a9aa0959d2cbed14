//! Distributed read execution: scans, partial aggregation, joins.
//!
//! The FE compiles a SELECT into two DCP phases. A **plan DAG** first fans
//! cell metadata work (manifest pruning, footer fetch, delete-vector
//! fetch) across Read-class nodes; the surviving per-file plans are then
//! split into row-group-aligned **morsels** and drained by the DCP's
//! work-stealing morsel scheduler ([`polaris_dcp::Morsel`]) with adaptive
//! sizing and late materialization. The FE merges partials and applies
//! presentation (final projection, ORDER BY, LIMIT).
//! Reads are indistinguishable from writes to the DCP — both are just
//! task DAGs (§3.3).

use crate::txn::Transaction;
use crate::{PolarisError, PolarisResult};
use polaris_columnar::{ColumnarError, DataType, Field, RecordBatch, Schema, Value};
use polaris_dcp::{Morsel, MorselCtx, TaskError, WorkflowDag, WorkloadClass};
use polaris_exec::{
    cells_of_snapshot, ops, plan_file_scan, AggExpr, AggFunc, BinOp, Expr, FileScanPlan,
    MorselScanOutput, ScanMorsel,
};
use polaris_lst::{SequenceId, TableSnapshot};
use polaris_obs::ScanMeter;
use polaris_sql::{AggPlan, SelectPlan};
use polaris_store::{ObjectStore, StoreError};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Ceiling on planning tasks per read statement.
const MAX_READ_TASKS: usize = 16;

/// Result of a statement: rows for SELECTs, an affected-count for DML.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result rows (empty, schema-less batch for DML).
    pub batch: RecordBatch,
    /// Rows affected, for DML statements.
    pub rows_affected: Option<u64>,
}

impl QueryResult {
    pub(crate) fn affected(n: u64) -> Self {
        QueryResult {
            batch: RecordBatch::empty(Schema::new(vec![])),
            rows_affected: Some(n),
        }
    }

    pub(crate) fn rows(batch: RecordBatch) -> Self {
        QueryResult {
            batch,
            rows_affected: None,
        }
    }
}

/// Execute a planned SELECT under the transaction's snapshot.
pub(crate) fn execute_select(
    txn: &mut Transaction,
    plan: &SelectPlan,
) -> PolarisResult<QueryResult> {
    // `FROM polaris.<table>` routes to the system-table providers before
    // any catalog state is touched: a system scan reads point-in-time
    // copies of engine state, pins no snapshot and blocks no commit.
    if plan.schema.is_some() {
        return execute_system_select(txn, plan);
    }
    let (base_schema, base_snap) = source_snapshot(txn, &plan.table, plan.as_of)?;
    let engine = Arc::clone(txn.engine());
    let meter = Arc::clone(&txn.scan_meter);

    let batch = if !plan.joins.is_empty() {
        // Join path: scan every input fully, join and post-process at the
        // FE. Adequate at cell scale; a production planner would co-locate
        // by distribution instead.
        let left = distributed_scan(&engine, &base_schema, &base_snap, None, None, None, &meter)?;
        execute_at_fe(txn, &engine, left, plan, &meter)?
    } else if let Some(agg) = &plan.agg {
        let merged = distributed_aggregate(
            &engine,
            &base_schema,
            &base_snap,
            plan.predicate.as_ref(),
            agg,
            &meter,
        )?;
        present(merged, plan, None)?
    } else {
        // Projection and Top-N run morsel-side, so only each row group's
        // best `n` rows reach the FE — unless ORDER BY names a column the
        // projection drops: then the morsels keep every column and the FE
        // projects last.
        let morsel_side = plan
            .projections
            .as_deref()
            .filter(|projs| !orders_by_dropped_column(&plan.order_by, projs));
        let top_n = plan
            .limit
            .filter(|_| !plan.order_by.is_empty())
            .map(|n| TopN {
                order_by: plan.order_by.clone(),
                n,
            });
        let scanned = distributed_scan(
            &engine,
            &base_schema,
            &base_snap,
            plan.predicate.as_ref(),
            morsel_side,
            top_n,
            &meter,
        )?;
        let pending = plan
            .projections
            .as_deref()
            .filter(|_| morsel_side.is_none());
        present(scanned, plan, pending)?
    };
    Ok(QueryResult::rows(batch))
}

/// SQL permits ORDER BY over columns the projection drops; such a query
/// sorts first and projects last.
fn orders_by_dropped_column(order_by: &[(String, bool)], projs: &[(Expr, String)]) -> bool {
    order_by
        .iter()
        .any(|(col, _)| !projs.iter().any(|(_, name)| name == col))
}

/// The presentation tail every SELECT ends in: ORDER BY and LIMIT (as one
/// Top-N when both are given) around the `pending` projection, if the
/// caller has not applied it yet.
fn present(
    mut batch: RecordBatch,
    plan: &SelectPlan,
    pending: Option<&[(Expr, String)]>,
) -> PolarisResult<RecordBatch> {
    let deferred = pending.filter(|projs| orders_by_dropped_column(&plan.order_by, projs));
    if let (Some(projs), None) = (pending, deferred) {
        batch = ops::project(&batch, projs)?;
    }
    batch = match (plan.order_by.is_empty(), plan.limit) {
        (false, Some(n)) => ops::top_n(&batch, &plan.order_by, n)?,
        (false, None) => ops::sort(&batch, &plan.order_by)?,
        (true, Some(n)) => ops::limit(&batch, n),
        (true, None) => batch,
    };
    if let Some(projs) = deferred {
        batch = ops::project(&batch, projs)?;
    }
    Ok(batch)
}

/// The relational tail over a base input materialized at the FE: joins,
/// filter, aggregate or projection, presentation.
fn execute_at_fe(
    txn: &mut Transaction,
    engine: &Arc<crate::PolarisEngine>,
    mut batch: RecordBatch,
    plan: &SelectPlan,
    meter: &Arc<ScanMeter>,
) -> PolarisResult<RecordBatch> {
    for join in &plan.joins {
        let right = join_side_batch(txn, engine, join, meter)?;
        batch = ops::hash_join(&batch, &right, &join.left_keys, &join.right_keys)?;
    }
    if let Some(pred) = &plan.predicate {
        batch = ops::filter(&batch, pred)?;
    }
    match &plan.agg {
        Some(agg) => {
            let grouped = ops::hash_aggregate(&batch, &agg.group_by, &agg.aggs)?;
            present(grouped, plan, None)
        }
        None => present(batch, plan, plan.projections.as_deref()),
    }
}

/// Resolve the snapshot a table reference reads: the transaction's
/// overlaid view, or a historical snapshot for `AS OF` (which deliberately
/// ignores the transaction's own uncommitted writes — history is
/// immutable).
fn source_snapshot(
    txn: &mut Transaction,
    table: &str,
    as_of: Option<u64>,
) -> PolarisResult<(Schema, Arc<TableSnapshot>)> {
    let tid = txn.table_state(table)?;
    let t = &txn.tables[&tid];
    let schema = t.schema.clone();
    let snap = match as_of {
        None => t.view(),
        Some(seq) => {
            let meta = t.meta.clone();
            let engine = Arc::clone(txn.engine());
            engine.snapshot(&mut txn.ctxn, &meta, Some(SequenceId(seq)))?
        }
    };
    Ok((schema, snap))
}

/// Execute a SELECT whose base table is schema-qualified. Only the
/// `polaris` system schema exists; its providers snapshot engine state
/// into one batch on the calling thread, then the normal relational tail
/// (joins, filter, aggregate, project, sort, limit) applies unchanged.
///
/// Deliberately catalog-free for `polaris.*` inputs: no `table_state`, no
/// snapshot resolution — so a system scan inside a long-open transaction
/// neither pins the GC watermark further nor contends with commits.
fn execute_system_select(txn: &mut Transaction, plan: &SelectPlan) -> PolarisResult<QueryResult> {
    let schema_name = plan.schema.as_deref().unwrap_or_default();
    if schema_name != polaris_exec::SYSTEM_SCHEMA {
        return Err(PolarisError::invalid(format!(
            "unknown schema {schema_name} (only the {} system schema is supported)",
            polaris_exec::SYSTEM_SCHEMA
        )));
    }
    if plan.as_of.is_some() {
        return Err(PolarisError::unsupported("AS OF over system tables"));
    }
    let engine = Arc::clone(txn.engine());
    let meter = Arc::clone(&txn.scan_meter);
    let batch = engine.system_tables().scan(&plan.table)?;
    execute_at_fe(txn, &engine, batch, plan, &meter).map(QueryResult::rows)
}

/// Materialize one join input: a system-table snapshot for
/// `polaris.<name>` sides, a distributed snapshot scan otherwise — so
/// `polaris.slow_log JOIN polaris.trace_spans` and mixed user/system
/// joins both work through the one join path.
fn join_side_batch(
    txn: &mut Transaction,
    engine: &Arc<crate::PolarisEngine>,
    join: &polaris_sql::JoinPlan,
    meter: &Arc<ScanMeter>,
) -> PolarisResult<RecordBatch> {
    match join.schema.as_deref() {
        Some(polaris_exec::SYSTEM_SCHEMA) => Ok(engine.system_tables().scan(&join.table)?),
        Some(other) => Err(PolarisError::invalid(format!(
            "unknown schema {other} (only the {} system schema is supported)",
            polaris_exec::SYSTEM_SCHEMA
        ))),
        None => {
            let (right_schema, right_snap) = source_snapshot(txn, &join.table, join.as_of)?;
            distributed_scan(engine, &right_schema, &right_snap, None, None, None, meter)
        }
    }
}

/// Distributed scan: surviving file plans fan out as row-group-aligned
/// morsels over Read lanes; the FE concatenates their batches in snapshot
/// order.
///
/// Column pushdown: morsels range-read only the chunks the predicate and
/// projection expressions reference, and late-materialize non-predicate
/// columns (fetched only for row groups with surviving rows). With
/// `top_n` every row-group batch is cut to its best `n`
/// rows on the Read lane; the concatenation is in (file, group) order, so
/// the caller's final Top-N breaks ties as a sort of the whole table would.
fn distributed_scan(
    engine: &Arc<crate::PolarisEngine>,
    schema: &Schema,
    snapshot: &TableSnapshot,
    predicate: Option<&Expr>,
    projections: Option<&[(Expr, String)]>,
    top_n: Option<TopN>,
    meter: &Arc<ScanMeter>,
) -> PolarisResult<RecordBatch> {
    let finish = Finish::Rows {
        projections: projections.map(<[_]>::to_vec),
        top_n,
    };
    let batches = scan_finished(engine, snapshot, predicate, finish, meter)?;
    if batches.is_empty() {
        return Ok(RecordBatch::empty(output_schema(schema, projections)?));
    }
    Ok(RecordBatch::concat(&batches)?)
}

/// The one scan body under every SELECT over a user table: plan the
/// snapshot, drain every surviving file as morsels that apply `finish` to
/// each row-group batch, and return the finished batches in snapshot
/// order. Morsels complete in steal order, so the outputs are sorted by
/// `(file_index, group_lo)`: the result — and, for aggregates, the float
/// rounding of the partial merge — is the same however morsels split.
fn scan_finished(
    engine: &Arc<crate::PolarisEngine>,
    snapshot: &TableSnapshot,
    predicate: Option<&Expr>,
    finish: Finish,
    meter: &Arc<ScanMeter>,
) -> PolarisResult<Vec<RecordBatch>> {
    let needed = finish.needed_columns(predicate);
    let plans = plan_snapshot_scan(engine, snapshot, needed, predicate, meter)?;
    if plans.is_empty() {
        return Ok(Vec::new());
    }
    let finish = Arc::new(finish);
    let trace_parent = meter.tracer.current();
    let morsels: Vec<ScanMorselJob> = plans
        .iter()
        .map(|plan| ScanMorselJob {
            morsel: plan.whole_file_morsel(),
            store: Arc::clone(engine.store()),
            meter: Arc::clone(meter),
            finish: Arc::clone(&finish),
            trace_parent,
        })
        .collect();
    // Phase 2: drain the morsels under the engine's adaptive-sizing
    // budget, then fold the run's counters into the statement's meter.
    let (mut outputs, stats) = engine.pool().run_morsels(
        WorkloadClass::Read,
        morsels,
        engine.config().scan_morsel_target_bytes,
    )?;
    ScanMeter::bump(&meter.morsels_scheduled, stats.scheduled);
    ScanMeter::bump(&meter.morsels_stolen, stats.stolen);
    outputs.sort_by_key(|o| (o.file_index, o.group_lo));
    Ok(outputs.into_iter().flat_map(|o| o.batches).collect())
}

/// Phase 1 of a read: plan every cell (manifest pruning, footer fetch,
/// file-level stats pruning, delete-vector fetch) as a task DAG over Read
/// lanes. Returns the surviving per-file plans in snapshot order.
fn plan_snapshot_scan(
    engine: &Arc<crate::PolarisEngine>,
    snapshot: &TableSnapshot,
    needed: Option<BTreeSet<String>>,
    predicate: Option<&Expr>,
    meter: &Arc<ScanMeter>,
) -> PolarisResult<Vec<Arc<FileScanPlan>>> {
    let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::ScanPlanning);
    let cells = cells_of_snapshot(snapshot);
    if cells.is_empty() {
        return Ok(Vec::new());
    }
    let tasks = MAX_READ_TASKS.min(cells.len());
    // Group whole distributions per task (as `partition_cells` does), but
    // keep each cell's snapshot ordinal: it becomes the `file_index` that
    // restores deterministic output order after out-of-order morsel
    // completion.
    let mut groups: Vec<Vec<(usize, polaris_exec::Cell)>> =
        (0..tasks).map(|_| Vec::new()).collect();
    for (index, cell) in cells.into_iter().enumerate() {
        groups[(cell.distribution as usize) % tasks].push((index, cell));
    }
    let needed = Arc::new(needed);
    let mut dag: WorkflowDag<Vec<Arc<FileScanPlan>>> = WorkflowDag::new();
    for group in groups.into_iter().filter(|g| !g.is_empty()) {
        let store = Arc::clone(engine.store());
        let predicate = predicate.cloned();
        let needed = Arc::clone(&needed);
        let meter = Arc::clone(meter);
        dag.add_task(move |_ctx| {
            let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::ScanPlanning);
            let mut plans = Vec::new();
            for (index, cell) in &group {
                if let Some(plan) = plan_file_scan(
                    &*store,
                    cell,
                    *index,
                    needed.as_ref().as_ref(),
                    predicate.as_ref(),
                    Some(&meter),
                )
                .map_err(exec_to_task)?
                {
                    plans.push(plan);
                }
            }
            Ok(plans)
        });
    }
    let mut plans: Vec<Arc<FileScanPlan>> = engine
        .pool()
        .run_dag(dag, WorkloadClass::Read)?
        .into_iter()
        .flatten()
        .collect();
    plans.sort_by_key(|p| p.file_index);
    Ok(plans)
}

/// `ORDER BY … LIMIT n` as pushed into the scan morsels.
struct TopN {
    order_by: Vec<(String, bool)>,
    n: usize,
}

/// What a scan morsel does to each row-group batch before it travels to
/// the FE, so that compute stays distributed.
enum Finish {
    /// Plain scans: the FE projection (`None` keeps every column), then
    /// each batch's best `n` rows.
    Rows {
        projections: Option<Vec<(Expr, String)>>,
        top_n: Option<TopN>,
    },
    /// Aggregations: fold each batch into a partial aggregate, so only
    /// group rows travel. Partials are per *row group* — not per morsel —
    /// so float accumulation order is independent of where the adaptive
    /// scheduler happened to split.
    Partial {
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggExpr>,
    },
}

impl Finish {
    /// Column set the scan must materialize; `None` means "all columns"
    /// (`SELECT *`).
    fn needed_columns(&self, predicate: Option<&Expr>) -> Option<BTreeSet<String>> {
        let exprs: Vec<&Expr> = match self {
            Finish::Rows { projections, .. } => {
                projections.as_ref()?.iter().map(|(e, _)| e).collect()
            }
            Finish::Partial { group_by, aggs } => group_by
                .iter()
                .map(|(e, _)| e)
                .chain(aggs.iter().map(|a| &a.input))
                .collect(),
        };
        let mut needed = BTreeSet::new();
        for e in predicate.into_iter().chain(exprs) {
            e.referenced_columns(&mut needed);
        }
        Some(needed)
    }

    fn apply(&self, batch: &mut RecordBatch) -> Result<(), TaskError> {
        match self {
            Finish::Rows { projections, top_n } => {
                if let Some(projs) = projections {
                    *batch = ops::project(batch, projs).map_err(exec_to_task)?;
                }
                if let Some(top) = top_n {
                    *batch = ops::top_n(batch, &top.order_by, top.n).map_err(exec_to_task)?;
                }
            }
            Finish::Partial { group_by, aggs } => {
                *batch = ops::hash_aggregate(batch, group_by, aggs).map_err(exec_to_task)?;
            }
        }
        Ok(())
    }
}

/// Core-side adapter: one [`ScanMorsel`] plus everything its execution
/// needs, shaped as a [`polaris_dcp::Morsel`]. `exec` stays independent of
/// `dcp`; this struct is the bridge between the two.
#[derive(Clone)]
struct ScanMorselJob {
    morsel: ScanMorsel,
    store: Arc<dyn ObjectStore>,
    meter: Arc<ScanMeter>,
    finish: Arc<Finish>,
    /// Statement span captured on the submitting thread: morsel spans
    /// attach here, not to the driver thread's (empty) span stack.
    trace_parent: u64,
}

impl ScanMorselJob {
    fn with_morsel(&self, morsel: ScanMorsel) -> Self {
        let mut job = self.clone();
        job.morsel = morsel;
        job
    }
}

impl Morsel for ScanMorselJob {
    type Output = MorselScanOutput;

    fn weight(&self) -> u64 {
        self.morsel.weight()
    }

    fn split(&self) -> Option<(Self, Self)> {
        let (head, tail) = self.morsel.split()?;
        Some((self.with_morsel(head), self.with_morsel(tail)))
    }

    fn execute(&self, ctx: &MorselCtx) -> Result<MorselScanOutput, TaskError> {
        let mut span = self
            .meter
            .tracer
            .span_on_lane("exec.morsel", self.trace_parent, ctx.node);
        span.attr("file", self.morsel.plan.path.clone());
        span.attr(
            "groups",
            format!("{}..{}", self.morsel.group_lo, self.morsel.group_hi),
        );
        span.attr("stolen", ctx.stolen);
        let mut out = self
            .morsel
            .run(&*self.store, None, Some(&self.meter))
            .map_err(exec_to_task)?;
        for batch in &mut out.batches {
            self.finish.apply(batch)?;
        }
        span.attr(
            "rows",
            out.batches.iter().map(|b| b.num_rows() as u64).sum::<u64>(),
        );
        Ok(out)
    }
}

/// Distributed partial aggregation with FE merge. `AVG` decomposes into
/// SUM + COUNT partials and finalizes as a division at the FE.
fn distributed_aggregate(
    engine: &Arc<crate::PolarisEngine>,
    schema: &Schema,
    snapshot: &TableSnapshot,
    predicate: Option<&Expr>,
    agg: &AggPlan,
    meter: &Arc<ScanMeter>,
) -> PolarisResult<RecordBatch> {
    let (partial_aggs, finalizers) = decompose_avg(&agg.aggs, schema);
    let group_by = &agg.group_by;
    let finish = Finish::Partial {
        group_by: group_by.clone(),
        aggs: partial_aggs.clone(),
    };
    let mut partials = scan_finished(engine, snapshot, predicate, finish, meter)?;
    // Always contribute one FE-local partial over an empty input so scalar
    // aggregates return their SQL-mandated single row even on empty scans.
    let empty = RecordBatch::empty(schema.clone());
    partials.push(ops::hash_aggregate(&empty, group_by, &partial_aggs)?);
    // Scalar aggregates (no GROUP BY): the FE-local empty partial adds a
    // spurious all-NULL row unless merged; merge_aggregates handles both.
    let merged = ops::merge_aggregates(&partials, group_by.len(), &partial_aggs)?;
    finalize(&merged, group_by.len(), &finalizers)
}

/// How each original aggregate output is produced from partial columns.
#[derive(Debug, Clone)]
enum Finalizer {
    /// Pass a partial column through.
    Col(String, String),
    /// `sum / count`, NULL when count is 0.
    AvgDiv {
        output: String,
        sum_col: String,
        count_col: String,
    },
}

/// The partials the scan computes and how each aggregate is finished from
/// them. A partial whose `(func, input)` equals an earlier one is not added
/// again: its finalizer reads the earlier partial's column, so `SUM(v),
/// AVG(v)` sums `v` once per row group and merges that sum once.
fn decompose_avg(aggs: &[AggExpr], schema: &Schema) -> (Vec<AggExpr>, Vec<Finalizer>) {
    /// The column of the partial `func(input)`, added as `name` if new.
    fn partial(partials: &mut Vec<AggExpr>, func: AggFunc, input: Expr, name: &str) -> String {
        match partials.iter().find(|p| p.func == func && p.input == input) {
            Some(p) => p.output.clone(),
            None => {
                partials.push(AggExpr::new(func, input, name));
                name.to_owned()
            }
        }
    }
    let mut partials = Vec::new();
    let mut finalizers = Vec::new();
    for (i, agg) in aggs.iter().enumerate() {
        match agg.func {
            AggFunc::Avg => {
                // AVG sums in f64 wherever it runs (`ops::hash_aggregate`
                // does at the FE), so it never overflows: an integer input
                // is widened before the partial SUM, which therefore is not
                // the `SUM` of that input.
                let summed = match agg.input.result_type(schema) {
                    Ok(DataType::Int64) => agg
                        .input
                        .clone()
                        .binary(BinOp::Mul, Expr::lit(Value::Float(1.0))),
                    _ => agg.input.clone(),
                };
                let sum_col = partial(
                    &mut partials,
                    AggFunc::Sum,
                    summed,
                    &format!("__avg{i}_sum"),
                );
                let count_col = partial(
                    &mut partials,
                    AggFunc::Count,
                    agg.input.clone(),
                    &format!("__avg{i}_cnt"),
                );
                finalizers.push(Finalizer::AvgDiv {
                    output: agg.output.clone(),
                    sum_col,
                    count_col,
                });
            }
            func => {
                let col = partial(&mut partials, func, agg.input.clone(), &agg.output);
                finalizers.push(Finalizer::Col(agg.output.clone(), col));
            }
        }
    }
    (partials, finalizers)
}

fn finalize(
    merged: &RecordBatch,
    group_count: usize,
    finalizers: &[Finalizer],
) -> PolarisResult<RecordBatch> {
    let mut projs: Vec<(Expr, String)> = merged.schema().fields()[..group_count]
        .iter()
        .map(|f| (Expr::col(f.name.clone()), f.name.clone()))
        .collect();
    for f in finalizers {
        match f {
            Finalizer::Col(output, col) => {
                projs.push((Expr::col(col.clone()), output.clone()));
            }
            Finalizer::AvgDiv {
                output,
                sum_col,
                count_col,
            } => {
                projs.push((
                    Expr::col(sum_col.clone()).binary(BinOp::Div, Expr::col(count_col.clone())),
                    output.clone(),
                ));
            }
        }
    }
    Ok(ops::project(merged, &projs)?)
}

/// Shape of the (possibly projected) output for empty results.
fn output_schema(base: &Schema, projections: Option<&[(Expr, String)]>) -> PolarisResult<Schema> {
    match projections {
        None => Ok(base.clone()),
        Some(projs) => {
            let fields = projs
                .iter()
                .map(|(e, name)| {
                    let dt = e.result_type(base).unwrap_or(DataType::Int64);
                    Ok(Field::nullable(name.clone(), dt))
                })
                .collect::<PolarisResult<Vec<_>>>()?;
            Ok(Schema::new(fields))
        }
    }
}

/// The one rule for how an exec error ends a task or morsel attempt, on
/// the read and the write path alike.
pub(crate) fn exec_to_task(e: polaris_exec::ExecError) -> TaskError {
    match &e {
        // The store's own rule, [`store_to_task`].
        polaris_exec::ExecError::Store(StoreError::Transient { .. }) => {
            TaskError::transient(e.to_string())
        }
        // A truncated or garbled column-chunk range read surfaces as a
        // length/corruption decode error, not a StoreError. Retrying on
        // another lane distinguishes a flaky transfer from genuinely
        // corrupt bytes; the DCP retry budget bounds the latter.
        polaris_exec::ExecError::Columnar(
            ColumnarError::LengthMismatch { .. } | ColumnarError::Corrupt { .. },
        ) => TaskError::transient(e.to_string()),
        _ => TaskError::fatal(e.to_string()),
    }
}

/// How a store error ends a task attempt: only a transient fault can go
/// away on another attempt. A missing blob (say, a file GC reclaimed below
/// the retention horizon), a bad range or an unknown block is the same on
/// every retry, so it fails the task at once and names the blob.
pub(crate) fn store_to_task(e: StoreError) -> TaskError {
    match e {
        StoreError::Transient { .. } => TaskError::transient(e.to_string()),
        _ => TaskError::fatal(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_decomposition_shapes() {
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, Expr::col("x"), "sx"),
            AggExpr::new(AggFunc::Avg, Expr::col("y"), "ay"),
        ];
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("y", DataType::Int64),
        ]);
        let (partials, finals) = decompose_avg(&aggs, &schema);
        assert_eq!(partials.len(), 3);
        assert_eq!(
            partials[1].input.result_type(&schema).unwrap(),
            DataType::Float64
        );
        assert_eq!(partials[2].input, Expr::col("y"));
        assert_eq!(partials[1].output, "__avg1_sum");
        assert_eq!(partials[2].func, AggFunc::Count);
        assert!(matches!(&finals[1], Finalizer::AvgDiv { output, .. } if output == "ay"));
    }

    #[test]
    fn equal_partials_are_computed_once() {
        let schema = Schema::new(vec![
            Field::new("f", DataType::Float64),
            Field::new("i", DataType::Int64),
        ]);
        let sum_avg = |col: &str| {
            decompose_avg(
                &[
                    AggExpr::new(AggFunc::Sum, Expr::col(col), "s"),
                    AggExpr::new(AggFunc::Avg, Expr::col(col), "a"),
                ],
                &schema,
            )
        };
        // A float AVG's SUM is the SUM beside it.
        let (partials, finals) = sum_avg("f");
        assert_eq!(partials.len(), 2);
        assert!(matches!(
            &finals[1],
            Finalizer::AvgDiv { sum_col, count_col, .. } if sum_col == "s" && count_col == "__avg1_cnt"
        ));
        // An integer AVG sums `i * 1.0`, which is not `SUM(i)`.
        let (partials, _) = sum_avg("i");
        assert_eq!(partials.len(), 3);
        // Two names for one aggregate: one partial, two outputs.
        let (partials, finals) = decompose_avg(
            &[
                AggExpr::new(AggFunc::Sum, Expr::col("f"), "a"),
                AggExpr::new(AggFunc::Sum, Expr::col("f"), "b"),
            ],
            &schema,
        );
        assert_eq!(partials.len(), 1);
        assert_eq!(finals.len(), 2);
        assert!(matches!(&finals[1], Finalizer::Col(out, col) if out == "b" && col == "a"));
    }

    #[test]
    fn output_schema_for_projection() {
        let base = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
        ]);
        let projs = vec![
            (Expr::col("b"), "bee".to_owned()),
            (
                Expr::col("a").binary(BinOp::Div, Expr::lit(2i64)),
                "half".to_owned(),
            ),
        ];
        let s = output_schema(&base, Some(&projs)).unwrap();
        assert_eq!(s.fields()[0].name, "bee");
        assert_eq!(s.fields()[0].data_type, DataType::Float64);
        assert_eq!(s.fields()[1].data_type, DataType::Float64);
    }
}
