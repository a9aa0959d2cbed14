//! Recursive-descent parser.

use crate::ast::*;
use crate::date::parse_date_literal;
use crate::token::{tokenize, Sym, Token};
use polaris_columnar::{DataType, Value};
use polaris_exec::{AggFunc, BinOp, Expr};
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

type PResult<T> = Result<T, ParseError>;

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
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        peak: 0,
        aggregate: Aggregate::Refused,
        on: None,
        betweens: 0,
    };
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

/// How deep an expression may nest — parentheses, aggregate arguments,
/// unary minus, NOT, each arithmetic operator of a chain and ⌈log₂ n⌉ for
/// an n-operand AND or OR chain — before the parser refuses it. Every level
/// costs stack in the parser and in every later walk of the tree, and a
/// stack overflow aborts the whole process, so hostile nesting must become
/// an error long before a thread's 2 MiB stack runs out.
const MAX_NESTING: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Expression levels entered and not yet left.
    depth: usize,
    /// The deepest `depth` reached inside the innermost open chain.
    peak: usize,
    /// Where an aggregate call may stand.
    aggregate: Aggregate,
    /// While a join's `ON` is parsed: what it records.
    on: Option<JoinOn>,
    /// BETWEENs parsed so far.
    betweens: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> PResult<Token> {
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

    fn expect_keyword(&mut self, kw: &str) -> PResult<()> {
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

    fn expect_symbol(&mut self, sym: Sym) -> PResult<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected {sym:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn identifier(&mut self) -> PResult<String> {
        match self.next()? {
            Token::Word(w) if !is_reserved(&w) => Ok(w.to_ascii_lowercase()),
            other => Err(ParseError::new(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> PResult<Statement> {
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

    fn select(&mut self) -> PResult<SelectStmt> {
        let mut items = Vec::new();
        loop {
            if self.eat_symbol(Sym::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                self.aggregate = Aggregate::Allowed;
                let expr = self.expr()?;
                let aggregate = std::mem::replace(&mut self.aggregate, Aggregate::Refused);
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
                items.push(match aggregate {
                    Aggregate::Parsed(func, arg) if expr == AGGREGATE_CALL => {
                        SelectItem::Agg { func, arg, alias }
                    }
                    Aggregate::Parsed(..) => {
                        return Err(ParseError::new("aggregate used in scalar context"))
                    }
                    _ => SelectItem::Expr { expr, alias },
                });
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
            let on = self.join_on(&table)?;
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

    /// A join's `ON`: a conjunction of equalities, each recorded with the
    /// sides that name `table`.
    fn join_on(&mut self, table: &TableRef) -> PResult<Vec<JoinEq>> {
        self.on = Some(JoinOn {
            names: [table.name.clone(), table.alias.clone().unwrap_or_default()],
            joined_refs: 0,
            sides: Vec::new(),
        });
        let on = self.expr();
        let sides = self.on.take().map(|on| on.sides).unwrap_or_default();
        let mut eqs = Vec::new();
        join_eqs(on?, &mut sides.into_iter(), &mut eqs)?;
        Ok(eqs)
    }

    fn table_ref(&mut self) -> PResult<TableRef> {
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

    fn insert(&mut self) -> PResult<Statement> {
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

    fn update(&mut self) -> PResult<Statement> {
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

    fn delete(&mut self) -> PResult<Statement> {
        self.expect_keyword("FROM")?;
        let table = self.identifier()?;
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, predicate })
    }

    fn create_table(&mut self) -> PResult<Statement> {
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

    fn data_type(&mut self) -> PResult<DataType> {
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

    fn literal_value(&mut self) -> PResult<Value> {
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
    // Each level builds the executor's `Expr` directly; the constructs the
    // executor lacks are rewritten where they are read.
    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::or_expr)
    }

    /// Run `parse` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested(&mut self, parse: impl FnOnce(&mut Self) -> PResult<Expr>) -> PResult<Expr> {
        let depth = self.depth;
        self.descend(1)?;
        let out = parse(self);
        self.depth = depth;
        out
    }

    /// Go `levels` deeper, refusing past [`MAX_NESTING`].
    fn descend(&mut self, levels: usize) -> PResult<()> {
        if self.depth + levels > MAX_NESTING {
            return Err(ParseError::new(format!(
                "expression nested deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += levels;
        self.peak = self.peak.max(self.depth);
        Ok(())
    }

    /// Parse a chain whose operator nodes stand above its operands: `body`
    /// calls [`Parser::above`] before each node, which puts it one level
    /// below the deepest operand parsed so far, so a chain's operators
    /// count against [`MAX_NESTING`] however flat it is written.
    fn chain(&mut self, body: impl FnOnce(&mut Self) -> PResult<Expr>) -> PResult<Expr> {
        let (depth, outer_peak) = (self.depth, std::mem::replace(&mut self.peak, self.depth));
        let out = body(self);
        self.depth = depth;
        self.peak = self.peak.max(outer_peak);
        out
    }

    /// `levels` of operator nodes above everything the chain parsed so far.
    fn above(&mut self, levels: usize) -> PResult<()> {
        self.depth = self.peak;
        self.descend(levels)
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        self.balanced_chain("OR", BinOp::Or, Self::and_expr)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        self.balanced_chain("AND", BinOp::And, Self::not_expr)
    }

    /// `operand (kw operand)*` as a balanced tree of `op`. SQL's AND and OR
    /// are associative and evaluation always runs both operands left to
    /// right, so the shape changes neither a result nor the first error;
    /// n operands cost ⌈log₂ n⌉ levels instead of n.
    fn balanced_chain(
        &mut self,
        kw: &str,
        op: BinOp,
        operand: fn(&mut Self) -> PResult<Expr>,
    ) -> PResult<Expr> {
        self.chain(|p| {
            let first = operand(p)?;
            if !p.peek_keyword(kw) {
                return Ok(first);
            }
            let mut operands = vec![first];
            while p.eat_keyword(kw) {
                operands.push(operand(p)?);
            }
            let n = operands.len();
            p.above(n.next_power_of_two().trailing_zeros() as usize)?;
            Ok(balance(op, &mut operands.into_iter(), n))
        })
    }

    fn not_expr(&mut self) -> PResult<Expr> {
        if self.eat_keyword("NOT") {
            return Ok(Expr::Not(Box::new(self.nested(Self::not_expr)?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> PResult<Expr> {
        let mark = self.on.as_ref().map_or(0, |on| on.sides.len());
        let refs = self.joined_refs();
        let betweens = self.betweens;
        let left = self.additive()?;
        let mut sides = None;
        let expr = if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            let is_null = Expr::IsNull(Box::new(left));
            if negated {
                Expr::Not(Box::new(is_null))
            } else {
                is_null
            }
        } else if self.eat_keyword("LIKE") {
            match self.next()? {
                Token::Str(pattern) => like(left, &pattern)?,
                other => return Err(ParseError::new(format!("bad LIKE pattern {other:?}"))),
            }
        } else if self.eat_keyword("BETWEEN") {
            // The tested operand is written twice (`e >= lo AND e <= hi`):
            // a BETWEEN inside it would double the tree per level.
            if self.betweens > betweens {
                return Err(ParseError::new(
                    "BETWEEN over an operand that holds a BETWEEN is not supported",
                ));
            }
            self.betweens += 1;
            let lo = self.additive()?;
            self.expect_keyword("AND")?;
            let hi = self.additive()?;
            left.clone().gt_eq(lo).and(left.lt_eq(hi))
        } else if let Some(op) = self.eat_op(&COMPARISONS) {
            let mid = self.joined_refs();
            let right = self.additive()?;
            if op == BinOp::Eq {
                sides = Some((mid > refs, self.joined_refs() > mid));
            }
            left.binary(op, right)
        } else {
            return Ok(left);
        };
        // In a join's ON, each comparison leaves one record (the sides an
        // `=` names, or none for what cannot be a join key) in place of
        // those its operands left: only a comparison inside no other one
        // can be a conjunct of `ON`.
        if let Some(on) = &mut self.on {
            on.sides.truncate(mark);
            on.sides.push(sides);
        }
        Ok(expr)
    }

    /// Consume the next token if it spells one of `ops`.
    fn eat_op(&mut self, ops: &[(Sym, BinOp)]) -> Option<BinOp> {
        let Some(Token::Symbol(sym)) = self.peek() else {
            return None;
        };
        let op = ops.iter().find(|(s, _)| s == sym)?.1;
        self.pos += 1;
        Some(op)
    }

    /// Column references naming the joined table, so far in this `ON`.
    fn joined_refs(&self) -> usize {
        self.on.as_ref().map_or(0, |on| on.joined_refs)
    }

    fn additive(&mut self) -> PResult<Expr> {
        self.left_chain(&ADDITIVE, Self::multiplicative)
    }

    fn multiplicative(&mut self) -> PResult<Expr> {
        self.left_chain(&MULTIPLICATIVE, Self::atom)
    }

    /// `operand (op operand)*` over `ops` as a left-deep tree: arithmetic
    /// is not associative, so each operator is a level of its own.
    fn left_chain(
        &mut self,
        ops: &[(Sym, BinOp)],
        operand: fn(&mut Self) -> PResult<Expr>,
    ) -> PResult<Expr> {
        self.chain(|p| {
            let mut left = operand(p)?;
            while let Some(op) = p.eat_op(ops) {
                p.above(1)?;
                left = left.binary(op, operand(p)?);
            }
            Ok(left)
        })
    }

    fn atom(&mut self) -> PResult<Expr> {
        match self.next()? {
            Token::Int(v) => Ok(Expr::lit(v)),
            Token::Float(v) => Ok(Expr::lit(v)),
            Token::Str(s) => Ok(Expr::lit(s)),
            Token::Symbol(Sym::Minus) => {
                // Unary minus over an atom.
                let inner = self.nested(Self::atom)?;
                Ok(Expr::lit(0i64).binary(BinOp::Sub, inner))
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

    fn word_atom(&mut self, word: String) -> PResult<Expr> {
        if word.eq_ignore_ascii_case("NULL") {
            return Ok(Expr::Literal(Value::Null));
        }
        if word.eq_ignore_ascii_case("TRUE") {
            return Ok(Expr::lit(true));
        }
        if word.eq_ignore_ascii_case("FALSE") {
            return Ok(Expr::lit(false));
        }
        if word.eq_ignore_ascii_case("DATE") {
            if let Some(Token::Str(_)) = self.peek() {
                let Token::Str(s) = self.next()? else {
                    unreachable!()
                };
                return parse_date_literal(&s)
                    .map(|d| Expr::Literal(Value::Date(d)))
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
                return self.aggregate_call(func);
            }
        }
        if is_reserved(&word) {
            return Err(ParseError::new(format!("unexpected keyword {word}")));
        }
        // Possibly qualified column: the qualifier is dropped (output column
        // names are unique across a query's tables); a join's ON notes the
        // ones that name the joined table.
        if self.eat_symbol(Sym::Dot) {
            let name = self.identifier()?;
            if let Some(on) = &mut self.on {
                if on.names.iter().any(|n| word.eq_ignore_ascii_case(n)) {
                    on.joined_refs += 1;
                }
            }
            return Ok(Expr::Column(name));
        }
        Ok(Expr::Column(word.to_ascii_lowercase()))
    }

    /// `func(` read: the rest of an aggregate call, which may only be a
    /// whole select item. The call is kept in `self.aggregate`; what it
    /// returns stands in its place until the select item is complete.
    fn aggregate_call(&mut self, func: AggFunc) -> PResult<Expr> {
        match std::mem::replace(&mut self.aggregate, Aggregate::Nested) {
            Aggregate::Allowed => {}
            Aggregate::Nested => return Err(ParseError::new("nested aggregates")),
            Aggregate::Refused | Aggregate::Parsed(..) => {
                return Err(ParseError::new("aggregate used in scalar context"))
            }
        }
        let arg = if self.eat_symbol(Sym::Star) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_symbol(Sym::RParen)?;
        self.aggregate = Aggregate::Parsed(func, arg);
        Ok(AGGREGATE_CALL)
    }
}

/// What the parser returns in place of an aggregate call: a column no
/// identifier can name.
const AGGREGATE_CALL: Expr = Expr::Column(String::new());

/// Where aggregate calls stand while a statement is parsed.
enum Aggregate {
    /// Outside the select list: a call is refused.
    Refused,
    /// In a select item, none read yet: a call may be the whole item.
    Allowed,
    /// Inside an aggregate's argument.
    Nested,
    /// This select item held a call.
    Parsed(AggFunc, Option<Expr>),
}

/// What a join's `ON` records while it is parsed.
struct JoinOn {
    /// The joined table's name and alias (empty without one: no
    /// qualifier is).
    names: [String; 2],
    /// Column references qualified by one of `names`, so far.
    joined_refs: usize,
    /// One entry per comparison that may be a conjunct of `ON`, in order:
    /// for `=`, whether each side references the joined table.
    sides: Vec<Option<(bool, bool)>>,
}

/// The binary operators each precedence level reads, by symbol.
const COMPARISONS: [(Sym, BinOp); 6] = [
    (Sym::Eq, BinOp::Eq),
    (Sym::NotEq, BinOp::NotEq),
    (Sym::Lt, BinOp::Lt),
    (Sym::LtEq, BinOp::LtEq),
    (Sym::Gt, BinOp::Gt),
    (Sym::GtEq, BinOp::GtEq),
];
const ADDITIVE: [(Sym, BinOp); 2] = [(Sym::Plus, BinOp::Add), (Sym::Minus, BinOp::Sub)];
const MULTIPLICATIVE: [(Sym, BinOp); 2] = [(Sym::Star, BinOp::Mul), (Sym::Slash, BinOp::Div)];

/// `expr LIKE pattern`: `'%s%'` is a substring test and a pattern without
/// wildcards an equality; nothing else is supported.
fn like(expr: Expr, pattern: &str) -> PResult<Expr> {
    let needle = pattern.trim_matches('%');
    if !needle.contains(['%', '_']) {
        if !pattern.contains('%') {
            return Ok(expr.eq(Expr::lit(pattern)));
        }
        if pattern.len() >= 2 && pattern.starts_with('%') && pattern.ends_with('%') {
            let expr = Box::new(expr);
            let needle = needle.to_owned();
            return Ok(Expr::Contains { expr, needle });
        }
    }
    Err(ParseError::new(format!(
        "unsupported LIKE pattern {pattern:?}: only '%substring%' is supported"
    )))
}

/// The next `n` operands joined by `op`, in order, as a tree ⌈log₂ n⌉ deep.
fn balance(op: BinOp, operands: &mut std::vec::IntoIter<Expr>, n: usize) -> Expr {
    if n == 1 {
        return operands.next().expect("one operand per leaf");
    }
    let left = balance(op, operands, n / 2);
    left.binary(op, balance(op, operands, n - n / 2))
}

/// Split a join's `ON` into its `=` conjuncts, taking each one's sides from
/// the record `comparison` left, in the same order.
fn join_eqs(
    on: Expr,
    sides: &mut std::vec::IntoIter<Option<(bool, bool)>>,
    out: &mut Vec<JoinEq>,
) -> PResult<()> {
    let (left, op, right) = match on {
        Expr::Binary { left, op, right } => (*left, op, *right),
        other => return Err(unsupported_join(&other)),
    };
    if op == BinOp::And {
        join_eqs(left, sides, out)?;
        return join_eqs(right, sides, out);
    }
    // `x LIKE 'exact'` reads as `=` but leaves no sides: no join key.
    let eq_sides = sides.next().flatten().filter(|_| op == BinOp::Eq);
    let Some((left_joined, right_joined)) = eq_sides else {
        return Err(unsupported_join(&left.binary(op, right)));
    };
    out.push(JoinEq {
        left,
        right,
        left_joined,
        right_joined,
    });
    Ok(())
}

fn unsupported_join(on: &Expr) -> ParseError {
    ParseError::new(format!(
        "unsupported join condition {on:?}: need conjunctions of equalities"
    ))
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
        let SelectItem::Agg { func, arg, alias } = &s.items[1] else {
            panic!("expected aggregate");
        };
        assert_eq!(*func, AggFunc::Sum);
        assert_eq!(arg, &Some(Expr::col("amount")));
        assert_eq!(alias.as_deref(), Some("total"));
        let SelectItem::Agg { arg, alias, .. } = &s.items[2] else {
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

    /// The WHERE clause of `SELECT 1 FROM t WHERE {predicate}`.
    fn predicate(predicate: &str) -> Expr {
        let sql = format!("SELECT 1 FROM t WHERE {predicate}");
        let Statement::Select(s) = parse(&sql).unwrap() else {
            panic!()
        };
        s.predicate.unwrap()
    }

    fn parse_err(sql: &str) -> String {
        parse(sql).unwrap_err().to_string()
    }

    #[test]
    fn operator_precedence() {
        let (a, b, c) = (Expr::col("a"), Expr::col("b"), Expr::col("c"));
        // a + b * c parses as a + (b * c)
        let Statement::Select(s) = parse("SELECT a + b * c FROM t").unwrap() else {
            panic!()
        };
        let sum = a
            .clone()
            .binary(BinOp::Add, b.clone().binary(BinOp::Mul, c.clone()));
        assert_eq!(
            s.items[0],
            SelectItem::Expr {
                expr: sum,
                alias: None
            }
        );
        // Arithmetic is left-associative.
        assert_eq!(
            predicate("a - b - c = 1"),
            a.clone()
                .binary(BinOp::Sub, b.clone())
                .binary(BinOp::Sub, c.clone())
                .eq(Expr::lit(1i64))
        );
        // AND binds tighter than OR
        assert_eq!(
            predicate("a OR b AND c"),
            a.clone().or(b.clone().and(c.clone()))
        );
        // A flat chain is balanced, its operands kept in order.
        let d = Expr::col("d");
        assert_eq!(
            predicate("a AND b AND c AND d"),
            a.clone().and(b.clone()).and(c.clone().and(d.clone()))
        );
        assert_eq!(predicate("a OR b OR c"), a.or(b.or(c)));
    }

    #[test]
    fn between_like_isnull() {
        let (a, b, c) = (Expr::col("a"), Expr::col("b"), Expr::col("c"));
        let between = a
            .clone()
            .gt_eq(Expr::lit(1i64))
            .and(a.lt_eq(Expr::lit(5i64)));
        let like = Expr::Contains {
            expr: Box::new(b.clone()),
            needle: "x".into(),
        };
        let not_null = Expr::Not(Box::new(Expr::IsNull(Box::new(c.clone()))));
        assert_eq!(
            predicate("a BETWEEN 1 AND 5 AND b LIKE '%x%' AND c IS NOT NULL"),
            between.and(like.and(not_null))
        );
        // A pattern without wildcards is an equality.
        assert_eq!(predicate("b LIKE 'exact'"), b.eq(Expr::lit("exact")));
        assert_eq!(predicate("c IS NULL"), Expr::IsNull(Box::new(c)));
        let e = parse_err("SELECT * FROM t WHERE s LIKE 'a%b'");
        assert!(e.contains("unsupported LIKE pattern"), "{e}");
    }

    #[test]
    fn aggregates_are_whole_select_items() {
        for sql in [
            "SELECT * FROM t WHERE SUM(a) > 1",
            "SELECT SUM(a) + 1 FROM t",
            "SELECT a FROM t GROUP BY SUM(a)",
            "UPDATE t SET a = MAX(a)",
        ] {
            let e = parse_err(sql);
            assert!(e.contains("aggregate used in scalar context"), "{sql}: {e}");
        }
        let e = parse_err("SELECT SUM(COUNT(a)) FROM t");
        assert!(e.contains("nested aggregates"), "{e}");
        // Parentheses around the whole item are no context.
        let Statement::Select(s) = parse("SELECT (SUM(a)) FROM t").unwrap() else {
            panic!()
        };
        assert!(matches!(s.items[0], SelectItem::Agg { .. }));
        // Without a call, the names stay column names.
        assert!(parse("SELECT count, sum FROM t").is_ok());
    }

    #[test]
    fn join_on_records_qualified_sides() {
        let Statement::Select(s) =
            parse("SELECT 1 FROM a JOIN b ON b.y = a.x AND (a.z + 1 = w)").unwrap()
        else {
            panic!()
        };
        let on = &s.joins[0].on;
        assert_eq!(on.len(), 2);
        assert_eq!((on[0].left_joined, on[0].right_joined), (true, false));
        assert_eq!(
            on[1].left,
            Expr::col("z").binary(BinOp::Add, Expr::lit(1i64))
        );
        assert_eq!((on[1].left_joined, on[1].right_joined), (false, false));
        for on in [
            "a.x < b.y",
            "a.x = b.y OR a.z = b.w",
            "a.x LIKE 'k'",
            "NOT a.x = b.y",
        ] {
            let e = parse_err(&format!("SELECT 1 FROM a JOIN b ON {on}"));
            assert!(e.contains("equalities"), "{on}: {e}");
        }
    }

    #[test]
    fn arithmetic_chains_count_as_nesting() {
        let chain = |n: usize| {
            let terms = vec!["1"; n + 1].join(" + ");
            parse(&format!("SELECT {terms} FROM t"))
        };
        // The select item is the first level.
        assert!(chain(MAX_NESTING - 1).is_ok());
        assert!(chain(MAX_NESTING).is_err());
        // A long AND chain costs only its log.
        let conjuncts = vec!["a = 1"; 100_000].join(" AND ");
        assert!(parse(&format!("SELECT 1 FROM t WHERE {conjuncts}")).is_ok());
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
