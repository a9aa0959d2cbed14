//! Abstract syntax of the supported dialect. Every scalar position holds
//! the executor's [`Expr`]: the parser rewrites the surface constructs the
//! executor lacks (BETWEEN, LIKE, IS NOT NULL) as it reads them.

use polaris_columnar::{DataType, Value};
use polaris_exec::{AggFunc, Expr};

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: Expr,
        /// Explicit alias, if any.
        alias: Option<String>,
    },
    /// `SUM(x) [AS alias]`, `COUNT(*)`, …: an aggregate call is always a
    /// whole select item.
    Agg {
        /// Function.
        func: AggFunc,
        /// Argument; `None` means `*`.
        arg: Option<Expr>,
        /// Explicit alias, if any.
        alias: Option<String>,
    },
}

/// A table reference with optional time travel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Schema qualifier (`FROM polaris.metrics`), lower-cased. `None`
    /// means the default user schema.
    pub schema: Option<String>,
    /// Table name (lower-cased).
    pub name: String,
    /// `AS OF <sequence>` — a historical snapshot (§6.1).
    pub as_of: Option<u64>,
    /// Local alias (`FROM t x` or `FROM t AS x`).
    pub alias: Option<String>,
}

/// An inner equi-join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined table.
    pub table: TableRef,
    /// The equalities `ON` is a conjunction of, as written.
    pub on: Vec<JoinEq>,
}

/// One `left = right` of a join's `ON`. Column qualifiers are gone from the
/// operands, so the parser records which sides named the joined table.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEq {
    /// Operand left of `=`.
    pub left: Expr,
    /// Operand right of `=`.
    pub right: Expr,
    /// `left` names a column by the joined table's name or alias.
    pub left_joined: bool,
    /// `right` names a column by the joined table's name or alias.
    pub right_joined: bool,
}

/// An ORDER BY item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderItem {
    /// Output column name to sort by.
    pub column: String,
    /// Descending?
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Base table.
    pub from: TableRef,
    /// Joins, applied left-to-right.
    pub joins: Vec<JoinClause>,
    /// WHERE clause.
    pub predicate: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY items (over output column names).
    pub order_by: Vec<OrderItem>,
    /// LIMIT.
    pub limit: Option<usize>,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (lower-cased).
    pub name: String,
    /// Data type.
    pub data_type: DataType,
    /// NULLs permitted?
    pub nullable: bool,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT.
    Select(SelectStmt),
    /// INSERT INTO t VALUES (...), (...).
    Insert {
        /// Target table.
        table: String,
        /// Row literals.
        rows: Vec<Vec<Value>>,
    },
    /// UPDATE t SET c = e, ... [WHERE p].
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional predicate.
        predicate: Option<Expr>,
    },
    /// DELETE FROM t [WHERE p].
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        predicate: Option<Expr>,
    },
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
    },
    /// BEGIN [TRAN|TRANSACTION].
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
    /// EXPLAIN ANALYZE <stmt>: execute the inner statement and render its
    /// trace span tree with per-phase timings and pruning statistics.
    ExplainAnalyze(Box<Statement>),
    /// SHOW ENGINE HEALTH: render the continuous-telemetry view — current
    /// health status, firing watchdogs, recent health events, top slow
    /// transactions/statements and commit-lock pressure.
    ShowEngineHealth,
    /// SHOW TABLES / SHOW SYSTEM TABLES: list user tables from the catalog
    /// and the virtual tables under `polaris.*`.
    ShowTables {
        /// `SHOW SYSTEM TABLES` — restrict the listing to `polaris.*`.
        system_only: bool,
    },
}
