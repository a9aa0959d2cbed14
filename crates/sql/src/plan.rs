//! Single-phase planning: lower parsed statements onto executor plans.
//!
//! The SQL FE compiles once and ships resolved plans (§3.3); BE tasks never
//! re-plan. `SelectPlan` is the serialized form of that distributed plan:
//! scan + joins + predicate + (partial-aggregatable) aggregation +
//! presentation.

use crate::ast::{JoinClause, SelectItem, SelectStmt, SqlExpr};
use polaris_exec::{AggExpr, AggFunc, Expr};
use std::fmt;

/// A planning error (unsupported construct or inconsistent query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    msg: String,
}

impl PlanError {
    fn new(msg: impl Into<String>) -> Self {
        PlanError { msg: msg.into() }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan error: {}", self.msg)
    }
}

impl std::error::Error for PlanError {}

/// One join step: hash-join the running result with `table`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// Schema qualifier of the joined table (`polaris.*` = system table).
    pub schema: Option<String>,
    /// Table to join in.
    pub table: String,
    /// Time-travel sequence for the joined table.
    pub as_of: Option<u64>,
    /// Keys evaluated against the running (left) side.
    pub left_keys: Vec<Expr>,
    /// Keys evaluated against the joined (right) side.
    pub right_keys: Vec<Expr>,
}

/// Aggregation step.
#[derive(Debug, Clone, PartialEq)]
pub struct AggPlan {
    /// Group-by keys with output names.
    pub group_by: Vec<(Expr, String)>,
    /// Aggregates.
    pub aggs: Vec<AggExpr>,
}

/// A fully lowered SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// Schema qualifier of the base table. `Some("polaris")` routes the
    /// scan to the system-table providers instead of the catalog.
    pub schema: Option<String>,
    /// Base table.
    pub table: String,
    /// Time-travel sequence for the base table (§6.1).
    pub as_of: Option<u64>,
    /// Join steps, applied in order.
    pub joins: Vec<JoinPlan>,
    /// Row filter, pushed into the scan where possible.
    pub predicate: Option<Expr>,
    /// Aggregation, if the query groups or aggregates.
    pub agg: Option<AggPlan>,
    /// Final projection; `None` means "all scan columns" (`SELECT *`).
    pub projections: Option<Vec<(Expr, String)>>,
    /// Sort order over output column names.
    pub order_by: Vec<(String, bool)>,
    /// Row limit.
    pub limit: Option<usize>,
}

/// Lower a parsed SELECT into a [`SelectPlan`].
pub fn plan_select(stmt: &SelectStmt) -> Result<SelectPlan, PlanError> {
    let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::ParsePlan);
    let joins = stmt
        .joins
        .iter()
        .map(lower_join)
        .collect::<Result<Vec<_>, _>>()?;
    let predicate = stmt.predicate.as_ref().map(lower_scalar).transpose()?;

    let has_agg_item = stmt.items.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => contains_agg(expr),
        SelectItem::Wildcard => false,
    });
    let is_aggregate = has_agg_item || !stmt.group_by.is_empty();

    let (agg, projections) = if is_aggregate {
        (Some(lower_aggregate(stmt)?), None)
    } else {
        (None, lower_projection(&stmt.items)?)
    };

    Ok(SelectPlan {
        schema: stmt.from.schema.clone(),
        table: stmt.from.name.clone(),
        as_of: stmt.from.as_of,
        joins,
        predicate,
        agg,
        projections,
        order_by: stmt
            .order_by
            .iter()
            .map(|o| (o.column.clone(), o.desc))
            .collect(),
        limit: stmt.limit,
    })
}

fn lower_projection(items: &[SelectItem]) -> Result<Option<Vec<(Expr, String)>>, PlanError> {
    if items.len() == 1 && items[0] == SelectItem::Wildcard {
        return Ok(None);
    }
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => return Err(PlanError::new("* must be the only select item")),
            SelectItem::Expr { expr, alias } => {
                let lowered = lower_scalar(expr)?;
                let name = alias.clone().unwrap_or_else(|| default_name(expr, i));
                out.push((lowered, name));
            }
        }
    }
    Ok(Some(out))
}

fn lower_aggregate(stmt: &SelectStmt) -> Result<AggPlan, PlanError> {
    let group_exprs: Vec<SqlExpr> = stmt.group_by.clone();
    let mut group_by = Vec::new();
    let mut aggs = Vec::new();
    // Walk select items in order: group keys keep their position, aggregates
    // append. Items must be either an aggregate call or one of the GROUP BY
    // expressions.
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                return Err(PlanError::new("* not allowed in aggregate queries"))
            }
            SelectItem::Expr { expr, alias } => match expr {
                SqlExpr::Agg { func, arg } => {
                    let input = match arg {
                        Some(a) => {
                            if contains_agg(a) {
                                return Err(PlanError::new("nested aggregates"));
                            }
                            lower_scalar(a)?
                        }
                        // COUNT(*) counts rows: count a non-null literal.
                        None => Expr::lit(1i64),
                    };
                    let name = alias.clone().unwrap_or_else(|| default_name(expr, i));
                    aggs.push(AggExpr::new(*func, input, name));
                }
                other => {
                    if !group_exprs.contains(other) {
                        return Err(PlanError::new(format!(
                            "select item {other:?} is neither an aggregate nor in GROUP BY"
                        )));
                    }
                    let name = alias.clone().unwrap_or_else(|| default_name(other, i));
                    group_by.push((lower_scalar(other)?, name));
                }
            },
        }
    }
    // GROUP BY columns not projected still group (SQL allows it).
    for g in &group_exprs {
        let lowered = lower_scalar(g)?;
        if !group_by.iter().any(|(e, _)| e == &lowered) {
            group_by.push((lowered.clone(), format!("_group{}", group_by.len())));
        }
    }
    Ok(AggPlan { group_by, aggs })
}

fn lower_join(join: &JoinClause) -> Result<JoinPlan, PlanError> {
    let right_names: Vec<&str> = [Some(join.table.name.as_str()), join.table.alias.as_deref()]
        .into_iter()
        .flatten()
        .collect();
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    collect_equi_keys(&join.on, &right_names, &mut left_keys, &mut right_keys)?;
    if left_keys.is_empty() {
        return Err(PlanError::new("join ON must contain at least one equality"));
    }
    Ok(JoinPlan {
        schema: join.table.schema.clone(),
        table: join.table.name.clone(),
        as_of: join.table.as_of,
        left_keys,
        right_keys,
    })
}

/// Decompose `ON` into equi-join keys. Accepts conjunctions of `x = y`.
fn collect_equi_keys(
    on: &SqlExpr,
    right_names: &[&str],
    left_keys: &mut Vec<Expr>,
    right_keys: &mut Vec<Expr>,
) -> Result<(), PlanError> {
    match on {
        SqlExpr::Binary {
            left,
            op: polaris_exec::BinOp::And,
            right,
        } => {
            collect_equi_keys(left, right_names, left_keys, right_keys)?;
            collect_equi_keys(right, right_names, left_keys, right_keys)
        }
        SqlExpr::Binary {
            left,
            op: polaris_exec::BinOp::Eq,
            right,
        } => {
            // Which operand belongs to the joined (right) table? Prefer
            // qualifier evidence; fall back to positional order.
            let l_right = references_table(left, right_names);
            let r_right = references_table(right, right_names);
            let (l, r) = match (l_right, r_right) {
                (true, false) => (right, left),
                _ => (left, right),
            };
            left_keys.push(lower_scalar(l)?);
            right_keys.push(lower_scalar(r)?);
            Ok(())
        }
        other => Err(PlanError::new(format!(
            "unsupported join condition {other:?}: need conjunctions of equalities"
        ))),
    }
}

fn references_table(expr: &SqlExpr, names: &[&str]) -> bool {
    match expr {
        SqlExpr::Column {
            qualifier: Some(q), ..
        } => names.contains(&q.as_str()),
        SqlExpr::Column {
            qualifier: None, ..
        }
        | SqlExpr::Literal(_)
        | SqlExpr::Agg { .. } => false,
        SqlExpr::Binary { left, right, .. } => {
            references_table(left, names) || references_table(right, names)
        }
        SqlExpr::Not(e) => references_table(e, names),
        SqlExpr::IsNull { expr, .. } => references_table(expr, names),
        SqlExpr::Like { expr, .. } => references_table(expr, names),
        SqlExpr::Between { expr, lo, hi } => {
            references_table(expr, names)
                || references_table(lo, names)
                || references_table(hi, names)
        }
    }
}

/// Lower a scalar (non-aggregate) expression to an executor expression —
/// public so the engine can lower UPDATE assignments and standalone
/// predicates.
pub fn lower_expr(expr: &SqlExpr) -> Result<Expr, PlanError> {
    lower_scalar(expr)
}

/// Lower a scalar (non-aggregate) expression.
pub(crate) fn lower_scalar(expr: &SqlExpr) -> Result<Expr, PlanError> {
    Ok(match expr {
        SqlExpr::Column { name, .. } => Expr::col(name.clone()),
        SqlExpr::Literal(v) => Expr::Literal(v.clone()),
        SqlExpr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(lower_scalar(left)?),
            op: *op,
            right: Box::new(lower_scalar(right)?),
        },
        SqlExpr::Not(e) => Expr::Not(Box::new(lower_scalar(e)?)),
        SqlExpr::IsNull { expr, negated } => {
            let is_null = Expr::IsNull(Box::new(lower_scalar(expr)?));
            if *negated {
                Expr::Not(Box::new(is_null))
            } else {
                is_null
            }
        }
        SqlExpr::Like { expr, pattern } => {
            let inner = lower_scalar(expr)?;
            let trimmed = pattern.trim_matches('%');
            if trimmed.contains('%') || trimmed.contains('_') {
                return Err(PlanError::new(format!(
                    "unsupported LIKE pattern {pattern:?}: only '%substring%' is supported"
                )));
            }
            if pattern.starts_with('%') && pattern.ends_with('%') && pattern.len() >= 2 {
                Expr::Contains {
                    expr: Box::new(inner),
                    needle: trimmed.to_owned(),
                }
            } else if !pattern.contains('%') {
                inner.eq(Expr::lit(pattern.as_str()))
            } else {
                return Err(PlanError::new(format!(
                    "unsupported LIKE pattern {pattern:?}: only '%substring%' is supported"
                )));
            }
        }
        SqlExpr::Between { expr, lo, hi } => {
            let e = lower_scalar(expr)?;
            let lo = lower_scalar(lo)?;
            let hi = lower_scalar(hi)?;
            e.clone().gt_eq(lo).and(e.lt_eq(hi))
        }
        SqlExpr::Agg { .. } => return Err(PlanError::new("aggregate used in scalar context")),
    })
}

fn contains_agg(expr: &SqlExpr) -> bool {
    match expr {
        SqlExpr::Agg { .. } => true,
        SqlExpr::Column { .. } | SqlExpr::Literal(_) => false,
        SqlExpr::Binary { left, right, .. } => contains_agg(left) || contains_agg(right),
        SqlExpr::Not(e) => contains_agg(e),
        SqlExpr::IsNull { expr, .. } => contains_agg(expr),
        SqlExpr::Like { expr, .. } => contains_agg(expr),
        SqlExpr::Between { expr, lo, hi } => {
            contains_agg(expr) || contains_agg(lo) || contains_agg(hi)
        }
    }
}

fn default_name(expr: &SqlExpr, index: usize) -> String {
    match expr {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::Agg { func, arg } => {
            let base = match func {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
                AggFunc::Avg => "avg",
            };
            match arg.as_deref() {
                Some(SqlExpr::Column { name, .. }) => format!("{base}_{name}"),
                _ => format!("{base}_{index}"),
            }
        }
        _ => format!("_col{index}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::Statement;

    fn plan(sql: &str) -> SelectPlan {
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!("not a select")
        };
        plan_select(&s).unwrap()
    }

    fn plan_err(sql: &str) -> PlanError {
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!("not a select")
        };
        plan_select(&s).unwrap_err()
    }

    #[test]
    fn wildcard_scan() {
        let p = plan("SELECT * FROM t WHERE a > 1");
        assert_eq!(p.table, "t");
        assert!(p.projections.is_none());
        assert!(p.agg.is_none());
        assert!(p.predicate.is_some());
    }

    #[test]
    fn projection_names() {
        let p = plan("SELECT a, b + 1 AS b1, c * 2 FROM t");
        let projs = p.projections.unwrap();
        assert_eq!(projs[0].1, "a");
        assert_eq!(projs[1].1, "b1");
        assert_eq!(projs[2].1, "_col2");
    }

    #[test]
    fn aggregate_plan_shapes() {
        let p = plan("SELECT region, SUM(x) AS sx, COUNT(*) FROM t GROUP BY region");
        let agg = p.agg.unwrap();
        assert_eq!(agg.group_by.len(), 1);
        assert_eq!(agg.group_by[0].1, "region");
        assert_eq!(agg.aggs.len(), 2);
        assert_eq!(agg.aggs[0].output, "sx");
        assert_eq!(agg.aggs[1].output, "count_2");
        // COUNT(*) counts a literal
        assert_eq!(agg.aggs[1].input, Expr::lit(1i64));
    }

    #[test]
    fn scalar_aggregate_without_group_by() {
        let p = plan("SELECT SUM(c2) FROM t1");
        let agg = p.agg.unwrap();
        assert!(agg.group_by.is_empty());
        assert_eq!(agg.aggs[0].output, "sum_c2");
    }

    #[test]
    fn non_grouped_item_rejected() {
        let e = plan_err("SELECT region, amount FROM t GROUP BY region");
        assert!(e.to_string().contains("neither an aggregate"));
    }

    #[test]
    fn join_key_orientation_by_qualifier() {
        let p = plan("SELECT o.total FROM orders o JOIN customer c ON c.ck = o.ck");
        // c.ck belongs to the joined table even though written first.
        assert_eq!(p.joins[0].left_keys, vec![Expr::col("ck")]);
        assert_eq!(p.joins[0].right_keys, vec![Expr::col("ck")]);
        let p = plan("SELECT 1 FROM a JOIN b ON a.x = b.y AND a.z = b.w");
        assert_eq!(p.joins[0].left_keys.len(), 2);
        assert_eq!(p.joins[0].right_keys, vec![Expr::col("y"), Expr::col("w")]);
    }

    #[test]
    fn non_equi_join_rejected() {
        let e = plan_err("SELECT 1 FROM a JOIN b ON a.x < b.y");
        assert!(e.to_string().contains("equalities"));
    }

    #[test]
    fn between_and_like_lowering() {
        let p = plan("SELECT * FROM t WHERE a BETWEEN 1 AND 5");
        let pred = p.predicate.unwrap();
        assert_eq!(
            pred,
            Expr::col("a")
                .clone()
                .gt_eq(Expr::lit(1i64))
                .and(Expr::col("a").lt_eq(Expr::lit(5i64)))
        );
        let p = plan("SELECT * FROM t WHERE s LIKE '%promo%'");
        assert!(matches!(p.predicate.unwrap(), Expr::Contains { .. }));
        // exact LIKE without wildcards is equality
        let p = plan("SELECT * FROM t WHERE s LIKE 'exact'");
        assert!(matches!(p.predicate.unwrap(), Expr::Binary { .. }));
        // unsupported pattern
        let e = plan_err("SELECT * FROM t WHERE s LIKE 'a%b'");
        assert!(e.to_string().contains("LIKE"));
    }

    #[test]
    fn is_not_null_lowering() {
        let p = plan("SELECT * FROM t WHERE a IS NOT NULL");
        assert!(matches!(p.predicate.unwrap(), Expr::Not(_)));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let e = plan_err("SELECT * FROM t WHERE SUM(a) > 1");
        assert!(e.to_string().contains("scalar context"));
    }

    #[test]
    fn time_travel_propagates() {
        let p = plan("SELECT * FROM t AS OF 9");
        assert_eq!(p.as_of, Some(9));
    }

    #[test]
    fn schema_qualifier_propagates() {
        let p = plan("SELECT * FROM polaris.metrics WHERE kind = 'counter'");
        assert_eq!(p.schema.as_deref(), Some("polaris"));
        assert_eq!(p.table, "metrics");
        let p = plan(
            "SELECT s.query_id FROM polaris.slow_log s \
             JOIN polaris.trace_spans t ON s.query_id = t.query_id",
        );
        assert_eq!(p.joins[0].schema.as_deref(), Some("polaris"));
        assert_eq!(p.joins[0].table, "trace_spans");
        let p = plan("SELECT * FROM t");
        assert_eq!(p.schema, None);
    }

    #[test]
    fn order_and_limit() {
        let p = plan("SELECT a FROM t ORDER BY a DESC, b LIMIT 7");
        assert_eq!(
            p.order_by,
            vec![("a".to_owned(), true), ("b".to_owned(), false)]
        );
        assert_eq!(p.limit, Some(7));
    }
}
