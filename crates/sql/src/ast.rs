//! Abstract syntax of the supported dialect.

use polaris_columnar::{DataType, Value};

/// A parsed SQL expression (before planning).
///
/// Distinct from [`polaris_exec::Expr`] because the surface syntax has
/// constructs the execution engine does not (aggregate calls, `*`,
/// qualified names) that the planner lowers or rejects contextually.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Possibly-qualified column reference (`a` or `t.a`; the qualifier is
    /// dropped at planning — output column names are globally unique in
    /// this engine).
    Column {
        /// Optional table qualifier.
        qualifier: Option<String>,
        /// Column name (lower-cased).
        name: String,
    },
    /// Literal.
    Literal(Value),
    /// Binary operation, using the executor's operator set.
    Binary {
        /// Left operand.
        left: Box<SqlExpr>,
        /// Operator.
        op: polaris_exec::BinOp,
        /// Right operand.
        right: Box<SqlExpr>,
    },
    /// `NOT expr`
    Not(Box<SqlExpr>),
    /// `expr IS NULL` / `expr IS NOT NULL` (negated)
    IsNull {
        /// Operand.
        expr: Box<SqlExpr>,
        /// Whether the test is negated.
        negated: bool,
    },
    /// `expr LIKE '%needle%'` (substring form only).
    Like {
        /// Operand.
        expr: Box<SqlExpr>,
        /// Pattern with `%` wildcards.
        pattern: String,
    },
    /// `expr BETWEEN lo AND hi`
    Between {
        /// Operand.
        expr: Box<SqlExpr>,
        /// Lower bound (inclusive).
        lo: Box<SqlExpr>,
        /// Upper bound (inclusive).
        hi: Box<SqlExpr>,
    },
    /// Aggregate call: `SUM(x)`, `COUNT(*)`, …
    Agg {
        /// Function.
        func: polaris_exec::AggFunc,
        /// Argument; `None` means `COUNT(*)`.
        arg: Option<Box<SqlExpr>>,
    },
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: SqlExpr,
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
    /// `ON` predicate (the planner requires a conjunction of equalities).
    pub on: SqlExpr,
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
    pub predicate: Option<SqlExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<SqlExpr>,
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
        assignments: Vec<(String, SqlExpr)>,
        /// Optional predicate.
        predicate: Option<SqlExpr>,
    },
    /// DELETE FROM t [WHERE p].
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        predicate: Option<SqlExpr>,
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
