//! Recursive-descent parser.

use crate::ast::*;
use crate::date::parse_date_literal;
use crate::token::{tokenize, Sym, Token};
use polaris_columnar::{DataType, Value};
use polaris_exec::{AggFunc, BinOp};
use std::fmt;

/// A syntax error with a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
}

impl ParseError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ParseError { msg: msg.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "syntax error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a single statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    let mut stmts = parse_many(sql)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        0 => Err(ParseError::new("empty input")),
        n => Err(ParseError::new(format!(
            "expected one statement, found {n}"
        ))),
    }
}

/// Parse a `;`-separated batch of statements.
pub fn parse_many(sql: &str) -> Result<Vec<Statement>, ParseError> {
    // Attribute parser allocations (token/AST vectors) to the parse/plan
    // phase for the engine's resource-attribution profiles.
    let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::ParsePlan);
    let tokens = tokenize(sql)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while parser.eat_symbol(Sym::Semicolon) {}
        if parser.at_end() {
            break;
        }
        out.push(parser.statement()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    /// Is the next token the keyword `kw` (case-insensitive)?
    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, sym: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: Sym) -> Result<(), ParseError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected {sym:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn identifier(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Token::Word(w) if !is_reserved(&w) => Ok(w.to_ascii_lowercase()),
            other => Err(ParseError::new(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_keyword("EXPLAIN") {
            self.expect_keyword("ANALYZE")?;
            let inner = self.statement()?;
            return Ok(Statement::ExplainAnalyze(Box::new(inner)));
        }
        if self.eat_keyword("SELECT") {
            return self.select().map(Statement::Select);
        }
        if self.eat_keyword("INSERT") {
            return self.insert();
        }
        if self.eat_keyword("UPDATE") {
            return self.update();
        }
        if self.eat_keyword("DELETE") {
            return self.delete();
        }
        if self.eat_keyword("CREATE") {
            self.expect_keyword("TABLE")?;
            return self.create_table();
        }
        if self.eat_keyword("DROP") {
            self.expect_keyword("TABLE")?;
            let name = self.identifier()?;
            return Ok(Statement::DropTable { name });
        }
        if self.eat_keyword("SHOW") {
            if self.eat_keyword("TABLES") {
                return Ok(Statement::ShowTables { system_only: false });
            }
            if self.eat_keyword("SYSTEM") {
                self.expect_keyword("TABLES")?;
                return Ok(Statement::ShowTables { system_only: true });
            }
            self.expect_keyword("ENGINE")?;
            self.expect_keyword("HEALTH")?;
            return Ok(Statement::ShowEngineHealth);
        }
        if self.eat_keyword("BEGIN") {
            let _ = self.eat_keyword("TRAN") || self.eat_keyword("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if self.eat_keyword("COMMIT") {
            let _ = self.eat_keyword("TRAN") || self.eat_keyword("TRANSACTION");
            return Ok(Statement::Commit);
        }
        if self.eat_keyword("ROLLBACK") {
            let _ = self.eat_keyword("TRAN") || self.eat_keyword("TRANSACTION");
            return Ok(Statement::Rollback);
        }
        Err(ParseError::new(format!(
            "unsupported statement start {:?}",
            self.peek()
        )))
    }

    fn select(&mut self) -> Result<SelectStmt, ParseError> {
        let mut items = Vec::new();
        loop {
            if self.eat_symbol(Sym::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.identifier()?)
                } else {
                    match self.peek() {
                        Some(Token::Word(w))
                            if !is_reserved(w) && !w.eq_ignore_ascii_case("FROM") =>
                        {
                            Some(self.identifier()?)
                        }
                        _ => None,
                    }
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        while self.eat_keyword("JOIN") || {
            if self.peek_keyword("INNER") {
                self.pos += 1;
                self.expect_keyword("JOIN")?;
                true
            } else {
                false
            }
        } {
            let table = self.table_ref()?;
            self.expect_keyword("ON")?;
            let on = self.expr()?;
            joins.push(JoinClause { table, on });
        }
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let column = self.identifier()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    let _ = self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { column, desc });
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") || {
            if self.peek_keyword("TOP") {
                self.pos += 1;
                true
            } else {
                false
            }
        } {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(ParseError::new(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            joins,
            predicate,
            group_by,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let mut name = self.identifier()?;
        // `schema.table` — today the only schema is the virtual `polaris`
        // one, but the grammar accepts any qualifier and lets the planner
        // decide what resolves.
        let mut schema = None;
        if self.eat_symbol(Sym::Dot) {
            schema = Some(name);
            name = self.identifier()?;
        }
        // `AS OF <seq>` — time travel. Note `AS` here is followed by OF,
        // otherwise it introduces an alias.
        let mut as_of = None;
        let mut alias = None;
        if self.eat_keyword("AS") {
            if self.eat_keyword("OF") {
                match self.next()? {
                    Token::Int(seq) if seq >= 0 => as_of = Some(seq as u64),
                    other => return Err(ParseError::new(format!("bad AS OF sequence {other:?}"))),
                }
            } else {
                alias = Some(self.identifier()?);
            }
        } else if matches!(self.peek(), Some(Token::Word(w)) if !is_reserved(w)) {
            alias = Some(self.identifier()?);
        }
        Ok(TableRef {
            schema,
            name,
            as_of,
            alias,
        })
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("INTO")?;
        let table = self.identifier()?;
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Sym::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal_value()?);
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
            self.expect_symbol(Sym::RParen)?;
            rows.push(row);
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn update(&mut self) -> Result<Statement, ParseError> {
        let table = self.identifier()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_symbol(Sym::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            predicate,
        })
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("FROM")?;
        let table = self.identifier()?;
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, predicate })
    }

    fn create_table(&mut self) -> Result<Statement, ParseError> {
        let name = self.identifier()?;
        self.expect_symbol(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.identifier()?;
            let data_type = self.data_type()?;
            let nullable = if self.eat_keyword("NULL") {
                true
            } else if self.eat_keyword("NOT") {
                self.expect_keyword("NULL")?;
                false
            } else {
                false
            };
            columns.push(ColumnDef {
                name: col,
                data_type,
                nullable,
            });
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        self.expect_symbol(Sym::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn data_type(&mut self) -> Result<DataType, ParseError> {
        let word = match self.next()? {
            Token::Word(w) => w.to_ascii_uppercase(),
            other => return Err(ParseError::new(format!("expected type, found {other:?}"))),
        };
        let dt = match word.as_str() {
            "BIGINT" | "INT" | "INTEGER" | "SMALLINT" => DataType::Int64,
            "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" => DataType::Float64,
            "VARCHAR" | "TEXT" | "CHAR" | "NVARCHAR" | "STRING" => {
                // Optional (n) length, ignored.
                if self.eat_symbol(Sym::LParen) {
                    let _ = self.next()?;
                    self.expect_symbol(Sym::RParen)?;
                }
                DataType::Utf8
            }
            "BOOL" | "BOOLEAN" | "BIT" => DataType::Bool,
            "DATE" => DataType::Date32,
            other => return Err(ParseError::new(format!("unknown type {other}"))),
        };
        // Optional precision, e.g. DECIMAL(12,2), ignored.
        if dt == DataType::Float64 && self.eat_symbol(Sym::LParen) {
            while !self.eat_symbol(Sym::RParen) {
                let _ = self.next()?;
            }
        }
        Ok(dt)
    }

    fn literal_value(&mut self) -> Result<Value, ParseError> {
        match self.next()? {
            Token::Int(v) => Ok(Value::Int(v)),
            Token::Float(v) => Ok(Value::Float(v)),
            Token::Str(s) => Ok(Value::Str(s)),
            Token::Symbol(Sym::Minus) => match self.next()? {
                Token::Int(v) => Ok(Value::Int(-v)),
                Token::Float(v) => Ok(Value::Float(-v)),
                other => Err(ParseError::new(format!("bad negative literal {other:?}"))),
            },
            Token::Word(w) if w.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Token::Word(w) if w.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Token::Word(w) if w.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            Token::Word(w) if w.eq_ignore_ascii_case("DATE") => match self.next()? {
                Token::Str(s) => parse_date_literal(&s)
                    .map(Value::Date)
                    .ok_or_else(|| ParseError::new(format!("bad date literal '{s}'"))),
                other => Err(ParseError::new(format!("bad DATE literal {other:?}"))),
            },
            other => Err(ParseError::new(format!(
                "expected literal, found {other:?}"
            ))),
        }
    }

    // Expression grammar, lowest to highest precedence:
    //   OR -> AND -> NOT -> comparison/IS/LIKE/BETWEEN -> add -> mul -> atom
    fn expr(&mut self) -> Result<SqlExpr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = SqlExpr::Binary {
                left: Box::new(left),
                op: BinOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr, ParseError> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = SqlExpr::Binary {
                left: Box::new(left),
                op: BinOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr, ParseError> {
        if self.eat_keyword("NOT") {
            return Ok(SqlExpr::Not(Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<SqlExpr, ParseError> {
        let left = self.additive()?;
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        if self.eat_keyword("LIKE") {
            match self.next()? {
                Token::Str(pattern) => {
                    return Ok(SqlExpr::Like {
                        expr: Box::new(left),
                        pattern,
                    })
                }
                other => return Err(ParseError::new(format!("bad LIKE pattern {other:?}"))),
            }
        }
        if self.eat_keyword("BETWEEN") {
            let lo = self.additive()?;
            self.expect_keyword("AND")?;
            let hi = self.additive()?;
            return Ok(SqlExpr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
            });
        }
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Sym::NotEq)) => Some(BinOp::NotEq),
            Some(Token::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Sym::LtEq)) => Some(BinOp::LtEq),
            Some(Token::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Sym::GtEq)) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(SqlExpr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<SqlExpr, ParseError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Plus)) => BinOp::Add,
                Some(Token::Symbol(Sym::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = SqlExpr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<SqlExpr, ParseError> {
        let mut left = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Star)) => BinOp::Mul,
                Some(Token::Symbol(Sym::Slash)) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.atom()?;
            left = SqlExpr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<SqlExpr, ParseError> {
        match self.next()? {
            Token::Int(v) => Ok(SqlExpr::Literal(Value::Int(v))),
            Token::Float(v) => Ok(SqlExpr::Literal(Value::Float(v))),
            Token::Str(s) => Ok(SqlExpr::Literal(Value::Str(s))),
            Token::Symbol(Sym::Minus) => {
                // Unary minus over an atom.
                let inner = self.atom()?;
                Ok(SqlExpr::Binary {
                    left: Box::new(SqlExpr::Literal(Value::Int(0))),
                    op: BinOp::Sub,
                    right: Box::new(inner),
                })
            }
            Token::Symbol(Sym::LParen) => {
                let inner = self.expr()?;
                self.expect_symbol(Sym::RParen)?;
                Ok(inner)
            }
            Token::Word(w) => self.word_atom(w),
            other => Err(ParseError::new(format!("unexpected token {other:?}"))),
        }
    }

    fn word_atom(&mut self, word: String) -> Result<SqlExpr, ParseError> {
        if word.eq_ignore_ascii_case("NULL") {
            return Ok(SqlExpr::Literal(Value::Null));
        }
        if word.eq_ignore_ascii_case("TRUE") {
            return Ok(SqlExpr::Literal(Value::Bool(true)));
        }
        if word.eq_ignore_ascii_case("FALSE") {
            return Ok(SqlExpr::Literal(Value::Bool(false)));
        }
        if word.eq_ignore_ascii_case("DATE") {
            if let Some(Token::Str(_)) = self.peek() {
                let Token::Str(s) = self.next()? else {
                    unreachable!()
                };
                return parse_date_literal(&s)
                    .map(|d| SqlExpr::Literal(Value::Date(d)))
                    .ok_or_else(|| ParseError::new(format!("bad date literal '{s}'")));
            }
        }
        let agg = match word.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "AVG" => Some(AggFunc::Avg),
            _ => None,
        };
        if let Some(func) = agg {
            if self.eat_symbol(Sym::LParen) {
                let arg = if self.eat_symbol(Sym::Star) {
                    None
                } else {
                    Some(Box::new(self.expr()?))
                };
                self.expect_symbol(Sym::RParen)?;
                return Ok(SqlExpr::Agg { func, arg });
            }
        }
        if is_reserved(&word) {
            return Err(ParseError::new(format!("unexpected keyword {word}")));
        }
        // Possibly qualified column.
        if self.eat_symbol(Sym::Dot) {
            let col = self.identifier()?;
            return Ok(SqlExpr::Column {
                qualifier: Some(word.to_ascii_lowercase()),
                name: col,
            });
        }
        Ok(SqlExpr::Column {
            qualifier: None,
            name: word.to_ascii_lowercase(),
        })
    }
}

fn is_reserved(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "ORDER",
        "LIMIT",
        "TOP",
        "JOIN",
        "INNER",
        "ON",
        "AS",
        "AND",
        "OR",
        "NOT",
        "INSERT",
        "INTO",
        "VALUES",
        "UPDATE",
        "SET",
        "DELETE",
        "CREATE",
        "DROP",
        "TABLE",
        "BEGIN",
        "COMMIT",
        "ROLLBACK",
        "TRAN",
        "TRANSACTION",
        "IS",
        "LIKE",
        "BETWEEN",
        "DESC",
        "ASC",
        "OF",
    ];
    RESERVED.iter().any(|k| word.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let stmt = parse("SELECT a, b FROM t WHERE a > 5 ORDER BY b DESC LIMIT 3").unwrap();
        let Statement::Select(s) = stmt else {
            panic!("not a select")
        };
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.name, "t");
        assert!(s.predicate.is_some());
        assert_eq!(
            s.order_by,
            vec![OrderItem {
                column: "b".into(),
                desc: true
            }]
        );
        assert_eq!(s.limit, Some(3));
    }

    #[test]
    fn parses_aggregates_and_group_by() {
        let stmt =
            parse("SELECT region, SUM(amount) AS total, COUNT(*) n FROM sales GROUP BY region")
                .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.group_by.len(), 1);
        let SelectItem::Expr {
            expr: SqlExpr::Agg { func, arg },
            alias,
        } = &s.items[1]
        else {
            panic!("expected aggregate");
        };
        assert_eq!(*func, AggFunc::Sum);
        assert!(arg.is_some());
        assert_eq!(alias.as_deref(), Some("total"));
        let SelectItem::Expr {
            expr: SqlExpr::Agg { arg, .. },
            alias,
        } = &s.items[2]
        else {
            panic!();
        };
        assert!(arg.is_none()); // COUNT(*)
        assert_eq!(alias.as_deref(), Some("n"));
    }

    #[test]
    fn parses_joins_with_qualified_columns() {
        let stmt =
            parse("SELECT o.total, c.name FROM orders o JOIN customer c ON o.custkey = c.custkey")
                .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.from.alias.as_deref(), Some("o"));
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table.name, "customer");
    }

    #[test]
    fn parses_time_travel() {
        let stmt = parse("SELECT * FROM t AS OF 42").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.from.as_of, Some(42));
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        // AS alias still works
        let stmt = parse("SELECT * FROM t AS x").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.from.alias.as_deref(), Some("x"));
        assert_eq!(s.from.as_of, None);
    }

    #[test]
    fn parses_insert_with_literals() {
        let stmt = parse(
            "INSERT INTO t VALUES (1, 'a', 2.5, NULL, TRUE, DATE '1970-01-02'), (-3, 'b', -0.5, NULL, FALSE, 0)",
        )
        .unwrap();
        let Statement::Insert { table, rows } = stmt else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[0][5], Value::Date(1));
        assert_eq!(rows[1][0], Value::Int(-3));
        assert_eq!(rows[1][2], Value::Float(-0.5));
    }

    #[test]
    fn parses_update_and_delete() {
        let stmt = parse("UPDATE t SET price = price * 1.1, tag = 'sale' WHERE id = 2").unwrap();
        let Statement::Update {
            table,
            assignments,
            predicate,
        } = stmt
        else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(assignments.len(), 2);
        assert!(predicate.is_some());
        let stmt = parse("DELETE FROM t").unwrap();
        let Statement::Delete { predicate, .. } = stmt else {
            panic!()
        };
        assert!(predicate.is_none());
    }

    #[test]
    fn parses_create_table() {
        let stmt = parse(
            "CREATE TABLE t (id BIGINT, name VARCHAR(20) NULL, price DECIMAL(12,2), ok BIT, d DATE NOT NULL)",
        )
        .unwrap();
        let Statement::CreateTable { name, columns } = stmt else {
            panic!()
        };
        assert_eq!(name, "t");
        assert_eq!(columns.len(), 5);
        assert_eq!(columns[0].data_type, DataType::Int64);
        assert!(columns[1].nullable);
        assert_eq!(columns[1].data_type, DataType::Utf8);
        assert_eq!(columns[2].data_type, DataType::Float64);
        assert_eq!(columns[3].data_type, DataType::Bool);
        assert_eq!(columns[4].data_type, DataType::Date32);
        assert!(!columns[4].nullable);
    }

    #[test]
    fn parses_txn_control() {
        assert_eq!(parse("BEGIN TRAN").unwrap(), Statement::Begin);
        assert_eq!(parse("BEGIN TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK;").unwrap(), Statement::Rollback);
    }

    #[test]
    fn parses_show_engine_health() {
        assert_eq!(
            parse("SHOW ENGINE HEALTH").unwrap(),
            Statement::ShowEngineHealth
        );
        assert_eq!(
            parse("show engine health;").unwrap(),
            Statement::ShowEngineHealth
        );
        assert!(parse("SHOW ENGINE").is_err());
        // SHOW/ENGINE/HEALTH stay usable as identifiers.
        assert!(parse("SELECT health FROM engine").is_ok());
    }

    #[test]
    fn parses_show_tables() {
        assert_eq!(
            parse("SHOW TABLES").unwrap(),
            Statement::ShowTables { system_only: false }
        );
        assert_eq!(
            parse("show system tables;").unwrap(),
            Statement::ShowTables { system_only: true }
        );
        assert!(parse("SHOW SYSTEM").is_err());
        // TABLES/SYSTEM stay usable as identifiers.
        assert!(parse("SELECT tables FROM system").is_ok());
    }

    #[test]
    fn parses_qualified_table_refs() {
        let Statement::Select(s) = parse("SELECT * FROM polaris.metrics").unwrap() else {
            panic!()
        };
        assert_eq!(s.from.schema.as_deref(), Some("polaris"));
        assert_eq!(s.from.name, "metrics");
        // Aliases and joins still compose with a qualifier.
        let Statement::Select(s) = parse(
            "SELECT s.query_id FROM polaris.slow_log s \
             JOIN polaris.trace_spans t ON s.query_id = t.query_id",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.from.alias.as_deref(), Some("s"));
        assert_eq!(s.joins[0].table.schema.as_deref(), Some("polaris"));
        assert_eq!(s.joins[0].table.name, "trace_spans");
        // Unqualified refs keep schema == None.
        let Statement::Select(s) = parse("SELECT * FROM t").unwrap() else {
            panic!()
        };
        assert_eq!(s.from.schema, None);
    }

    #[test]
    fn parses_batches() {
        let stmts = parse_many("BEGIN; INSERT INTO t VALUES (1); COMMIT;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn operator_precedence() {
        // a + b * c parses as a + (b * c)
        let Statement::Select(s) = parse("SELECT a + b * c FROM t").unwrap() else {
            panic!()
        };
        let SelectItem::Expr {
            expr: SqlExpr::Binary { op, right, .. },
            ..
        } = &s.items[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(
            right.as_ref(),
            SqlExpr::Binary { op: BinOp::Mul, .. }
        ));
        // AND binds tighter than OR
        let Statement::Select(s) = parse("SELECT 1 FROM t WHERE a OR b AND c").unwrap() else {
            panic!()
        };
        assert!(matches!(
            s.predicate.unwrap(),
            SqlExpr::Binary { op: BinOp::Or, .. }
        ));
    }

    #[test]
    fn between_like_isnull() {
        let Statement::Select(s) =
            parse("SELECT 1 FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE '%x%' AND c IS NOT NULL")
                .unwrap()
        else {
            panic!()
        };
        let pred = format!("{:?}", s.predicate.unwrap());
        assert!(pred.contains("Between") && pred.contains("Like") && pred.contains("IsNull"));
    }

    #[test]
    fn error_cases() {
        assert!(parse("").is_err());
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("INSERT INTO t VALUES (1,)").is_err());
        assert!(parse("FROBNICATE").is_err());
        assert!(parse("SELECT * FROM t; SELECT * FROM u").is_err()); // parse() wants one
        assert!(parse("CREATE TABLE t (a WIBBLE)").is_err());
        assert!(parse("INSERT INTO t VALUES (DATE 'xx')").is_err());
    }
}
