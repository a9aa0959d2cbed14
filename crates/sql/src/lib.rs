//! # polaris-sql
//!
//! The T-SQL-flavoured front-end surface of the reproduction: tokenizer,
//! a recursive-descent parser that builds [`polaris_exec::Expr`] trees
//! directly, and a single-phase planner that shapes a parsed SELECT into
//! a [`polaris_exec`] plan.
//!
//! The paper consolidates all query compilation in the SQL FE (§3.3) —
//! "eliminating the need for a local compilation stage within BE compute
//! nodes". This crate is that compilation stage: the engine parses and
//! plans once, then ships fully resolved plans to BE tasks.
//!
//! Supported dialect (enough for the examples and the TPC-H/LST-Bench-
//! shaped workloads):
//!
//! ```sql
//! CREATE TABLE t (id BIGINT, name VARCHAR NULL, price FLOAT, day DATE);
//! DROP TABLE t;
//! INSERT INTO t VALUES (1, 'a', 2.5, DATE '2024-01-31'), (2, NULL, 0.0, 0);
//! SELECT region, SUM(amount) AS total FROM sales
//!   WHERE day >= DATE '2024-01-01' AND region <> 'x'
//!   GROUP BY region ORDER BY total DESC LIMIT 10;
//! SELECT * FROM t AS OF 17;                 -- time travel to sequence 17
//! SELECT a.x, b.y FROM a JOIN b ON a.k = b.k;
//! UPDATE t SET price = price * 1.1 WHERE id = 2;
//! DELETE FROM t WHERE id < 100;
//! BEGIN; COMMIT; ROLLBACK;
//! ```

mod ast;
mod date;
mod parser;
mod plan;
mod token;

pub use ast::{
    ColumnDef, JoinClause, JoinEq, OrderItem, SelectItem, SelectStmt, Statement, TableRef,
};
pub use date::{date_to_days, days_to_date};
pub use parser::{parse, parse_many, ParseError};
pub use plan::{plan_select, AggPlan, JoinPlan, PlanError, SelectPlan};
