//! Single-phase planning: turn a parsed SELECT into the plan BE tasks run.
//!
//! The SQL FE compiles once and ships resolved plans (§3.3); BE tasks never
//! re-plan. The parser has already built every expression as the
//! executor's [`Expr`], so planning decides only the plan's shape: whether
//! the query aggregates, which select items are group keys, what each
//! output is called, and which side of each join equality belongs to the
//! joined table. `SelectPlan` is the serialized form of that distributed
//! plan: scan + joins + predicate + (partial-aggregatable) aggregation +
//! presentation.

use crate::ast::{JoinClause, SelectItem, SelectStmt};
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

/// Plan a parsed SELECT: its expressions are already the executor's, so
/// planning splits the select list into aggregation and projection, names
/// the outputs and orients each join's keys.
pub fn plan_select(stmt: &SelectStmt) -> Result<SelectPlan, PlanError> {
    let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::ParsePlan);
    let is_aggregate = !stmt.group_by.is_empty()
        || stmt
            .items
            .iter()
            .any(|item| matches!(item, SelectItem::Agg { .. }));
    let (agg, projections) = if is_aggregate {
        (Some(plan_aggregate(stmt)?), None)
    } else {
        (None, plan_projection(&stmt.items)?)
    };
    Ok(SelectPlan {
        schema: stmt.from.schema.clone(),
        table: stmt.from.name.clone(),
        as_of: stmt.from.as_of,
        joins: stmt.joins.iter().map(plan_join).collect(),
        predicate: stmt.predicate.clone(),
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

fn plan_projection(items: &[SelectItem]) -> Result<Option<Vec<(Expr, String)>>, PlanError> {
    if items.len() == 1 && items[0] == SelectItem::Wildcard {
        return Ok(None);
    }
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Expr { expr, alias } => {
                out.push((expr.clone(), output_name(expr, alias, i)));
            }
            // An aggregate item makes the query an aggregate one, so only
            // `*` gets here.
            SelectItem::Wildcard | SelectItem::Agg { .. } => {
                return Err(PlanError::new("* must be the only select item"))
            }
        }
    }
    Ok(Some(out))
}

fn plan_aggregate(stmt: &SelectStmt) -> Result<AggPlan, PlanError> {
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
            SelectItem::Agg { func, arg, alias } => {
                let name = alias.clone().unwrap_or_else(|| {
                    let base = match func {
                        AggFunc::Count => "count",
                        AggFunc::Sum => "sum",
                        AggFunc::Min => "min",
                        AggFunc::Max => "max",
                        AggFunc::Avg => "avg",
                    };
                    match arg {
                        Some(Expr::Column(name)) => format!("{base}_{name}"),
                        _ => format!("{base}_{i}"),
                    }
                });
                // COUNT(*) counts rows: count a non-null literal.
                let input = arg.clone().unwrap_or_else(|| Expr::lit(1i64));
                aggs.push(AggExpr::new(*func, input, name));
            }
            SelectItem::Expr { expr, alias } => {
                if !stmt.group_by.contains(expr) {
                    return Err(PlanError::new(format!(
                        "select item {expr:?} is neither an aggregate nor in GROUP BY"
                    )));
                }
                group_by.push((expr.clone(), output_name(expr, alias, i)));
            }
        }
    }
    // GROUP BY columns not projected still group (SQL allows it).
    for g in &stmt.group_by {
        if !group_by.iter().any(|(e, _)| e == g) {
            group_by.push((g.clone(), format!("_group{}", group_by.len())));
        }
    }
    Ok(AggPlan { group_by, aggs })
}

/// Keys for one join: each `l = r` of its `ON` goes left-to-right as
/// written, unless only `l` names the joined table, which puts it right.
fn plan_join(join: &JoinClause) -> JoinPlan {
    let (left_keys, right_keys) = join
        .on
        .iter()
        .map(|eq| match (eq.left_joined, eq.right_joined) {
            (true, false) => (eq.right.clone(), eq.left.clone()),
            _ => (eq.left.clone(), eq.right.clone()),
        })
        .unzip();
    JoinPlan {
        schema: join.table.schema.clone(),
        table: join.table.name.clone(),
        as_of: join.table.as_of,
        left_keys,
        right_keys,
    }
}

fn output_name(expr: &Expr, alias: &Option<String>, index: usize) -> String {
    match (alias, expr) {
        (Some(alias), _) => alias.clone(),
        (None, Expr::Column(name)) => name.clone(),
        (None, _) => format!("_col{index}"),
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
    fn join_keys_orient_by_alias_on_different_names() {
        let p = plan("SELECT 1 FROM orders o JOIN customer c ON c.cid = o.ocid");
        assert_eq!(p.joins[0].left_keys, vec![Expr::col("ocid")]);
        assert_eq!(p.joins[0].right_keys, vec![Expr::col("cid")]);
        // The table's own name qualifies as well as its alias.
        let p = plan("SELECT 1 FROM orders o JOIN customer c ON customer.cid = ocid");
        assert_eq!(p.joins[0].right_keys, vec![Expr::col("cid")]);
        // Evidence on both sides, or on neither, keeps the written order.
        let p = plan("SELECT 1 FROM orders o JOIN customer c ON c.cid + o.k = c.ocid");
        assert_eq!(p.joins[0].right_keys, vec![Expr::col("ocid")]);
    }

    #[test]
    fn group_by_matches_items_up_to_qualifier() {
        let p = plan("SELECT t.region, COUNT(*) FROM t GROUP BY region");
        let agg = p.agg.unwrap();
        assert_eq!(
            agg.group_by,
            vec![(Expr::col("region"), "region".to_owned())]
        );
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
    }

    #[test]
    fn is_not_null_lowering() {
        let p = plan("SELECT * FROM t WHERE a IS NOT NULL");
        assert!(matches!(p.predicate.unwrap(), Expr::Not(_)));
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
