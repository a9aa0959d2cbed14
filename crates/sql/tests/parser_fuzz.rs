//! Parser robustness: arbitrary input must never panic — only return
//! structured errors — valid statements must round-trip through
//! parse → plan without panicking either, no nesting depth or chain length
//! may overflow the stack, and every printed expression tree parses back to
//! itself.

use polaris_columnar::Value;
use polaris_exec::{BinOp, Expr};
use polaris_sql::SelectItem;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Total garbage never panics.
    #[test]
    fn arbitrary_bytes_never_panic(input in ".{0,200}") {
        let _ = polaris_sql::parse(&input);
        let _ = polaris_sql::parse_many(&input);
    }

    /// SQL-shaped garbage never panics (higher hit rate on parser paths).
    #[test]
    fn sqlish_soup_never_panics(
        words in proptest::collection::vec(
            prop_oneof![
                Just("SELECT".to_owned()), Just("FROM".to_owned()),
                Just("WHERE".to_owned()), Just("GROUP".to_owned()),
                Just("BY".to_owned()), Just("ORDER".to_owned()),
                Just("INSERT".to_owned()), Just("INTO".to_owned()),
                Just("VALUES".to_owned()), Just("UPDATE".to_owned()),
                Just("SET".to_owned()), Just("DELETE".to_owned()),
                Just("JOIN".to_owned()), Just("ON".to_owned()),
                Just("AND".to_owned()), Just("OR".to_owned()),
                Just("NOT".to_owned()), Just("NULL".to_owned()),
                Just("AS".to_owned()), Just("OF".to_owned()),
                Just("(".to_owned()), Just(")".to_owned()),
                Just(",".to_owned()), Just(";".to_owned()),
                Just("=".to_owned()), Just("<".to_owned()),
                Just("*".to_owned()), Just("'str'".to_owned()),
                Just("42".to_owned()), Just("3.14".to_owned()),
                Just("tbl".to_owned()), Just("col".to_owned()),
                Just("SUM".to_owned()), Just("COUNT".to_owned()),
                Just("BETWEEN".to_owned()), Just("LIKE".to_owned()),
                Just("IS".to_owned()), Just("DATE".to_owned()),
            ],
            0..30,
        )
    ) {
        let sql = words.join(" ");
        if let Ok(polaris_sql::Statement::Select(sel)) = polaris_sql::parse(&sql) {
            // Planning a parsed statement must not panic either.
            let _ = polaris_sql::plan_select(&sel);
        }
    }

    /// Generated well-formed selects always parse and plan.
    #[test]
    fn well_formed_selects_always_plan(
        cols in proptest::collection::vec("c_[a-z0-9_]{0,8}", 1..4),
        table in "t_[a-z0-9_]{0,8}",
        lit in any::<i32>(),
        desc in any::<bool>(),
        limit in proptest::option::of(0usize..1000),
    ) {
        let mut sql = format!("SELECT {} FROM {}", cols.join(", "), table);
        sql.push_str(&format!(" WHERE {} > {}", cols[0], lit));
        sql.push_str(&format!(" ORDER BY {}{}", cols[0], if desc { " DESC" } else { "" }));
        if let Some(n) = limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        let stmt = polaris_sql::parse(&sql).unwrap();
        let polaris_sql::Statement::Select(sel) = stmt else { panic!() };
        polaris_sql::plan_select(&sel).unwrap();
    }

    /// Deeply nested expressions — parentheses, unary minus and NOT in any
    /// mix, up to 20 000 levels, around an AND, OR or `+` chain of up to
    /// 20 000 terms — parse within the nesting limit and are refused past
    /// it; neither parsing nor planning overflows the stack.
    #[test]
    fn deep_nesting_is_bounded(
        kinds in proptest::collection::vec(0u8..3, 1..8),
        depth in 0usize..20_000,
        chain in proptest::option::of(0usize..3),
        terms in 0usize..20_000,
        near_limit in any::<bool>(),
    ) {
        let depth = if near_limit { depth % 150 } else { depth };
        let terms = 2 + if near_limit { terms % 150 } else { terms };
        let mut sql = String::from("SELECT ");
        let mut closing = 0;
        let mut after_minus = false;
        for kind in kinds.iter().cycle().take(depth) {
            // NOT starts a predicate, so it cannot be a minus's operand.
            match (kind, after_minus) {
                (0, _) | (2, true) => {
                    sql.push('(');
                    closing += 1;
                }
                (1, _) => sql.push_str("- "),
                _ => sql.push_str("NOT "),
            }
            after_minus = *kind == 1;
        }
        // The parenthesised chain is a level, and inside it a balanced
        // AND/OR chain costs ⌈log₂ n⌉ levels, a `+` chain one per operator.
        let chain_levels = match chain {
            None => {
                sql.push('1');
                0
            }
            Some(kind) => {
                let op = [" AND ", " OR ", " + "][kind];
                sql.push_str(&format!("({})", vec!["1"; terms].join(op)));
                1 + if kind == 2 {
                    terms - 1
                } else {
                    terms.next_power_of_two().trailing_zeros() as usize
                }
            }
        };
        sql.push_str(&")".repeat(closing));
        sql.push_str(" FROM t");
        // The select item itself is the first level.
        let levels = 1 + depth + chain_levels;
        match polaris_sql::parse(&sql) {
            Ok(stmt) => {
                prop_assert!(levels <= 128, "{levels} levels parsed");
                if let polaris_sql::Statement::Select(sel) = stmt {
                    let _ = polaris_sql::plan_select(&sel);
                }
            }
            Err(_) => prop_assert!(levels > 128, "{levels} levels refused"),
        }
    }

    /// Every expression tree the executor runs comes back from the parser
    /// as itself, printed with every parenthesis or with only those
    /// precedence needs.
    #[test]
    fn printed_trees_parse_back(tape in proptest::collection::vec(any::<u32>(), 1..64)) {
        let expr = tree(&mut tape.into_iter(), 6);
        for text in [full(&expr), minimal(&expr, 0)] {
            let sql = format!("SELECT {text} FROM t");
            let stmt = polaris_sql::parse(&sql);
            let Ok(polaris_sql::Statement::Select(sel)) = stmt else {
                return Err(TestCaseError::fail(format!("{sql}: {stmt:?}")));
            };
            let item = SelectItem::Expr { expr: expr.clone(), alias: None };
            prop_assert_eq!(&sel.items, &vec![item], "{}", sql);
        }
    }
}

const OPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Eq,
    BinOp::NotEq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
    BinOp::And,
    BinOp::Or,
];

/// A random tree at most `depth` deep, each node drawn from `tape`:
/// columns, literals, the twelve binary operators, NOT and IS NULL.
fn tree(tape: &mut impl Iterator<Item = u32>, depth: usize) -> Expr {
    let pick = tape.next().unwrap_or(0);
    let node = if depth == 0 { pick % 4 } else { pick % 18 };
    let mut child = || Box::new(tree(tape, depth - 1));
    match node {
        0..=3 => leaf(pick / 18),
        4..=15 => Expr::Binary {
            left: child(),
            op: OPS[node as usize - 4],
            right: child(),
        },
        16 => Expr::Not(child()),
        _ => Expr::IsNull(child()),
    }
}

fn leaf(pick: u32) -> Expr {
    match pick % 8 {
        0 | 1 => Expr::col(format!("c_{}", pick / 8 % 4)),
        2 => Expr::lit(i64::from(pick / 8)),
        3 => Expr::lit(f64::from(pick / 8 % 1000) / 8.0),
        4 => Expr::lit(["", "x", "it's"][(pick / 8 % 3) as usize]),
        5 => Expr::lit((pick / 8).is_multiple_of(2)),
        6 => Expr::Literal(Value::Null),
        _ => Expr::Literal(Value::Date((pick / 8 % 40_000) as i32)),
    }
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(v) => v.to_string(),
        Value::Float(v) => format!("{v:?}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        Value::Date(d) => {
            let (y, m, d) = polaris_sql::days_to_date(*d);
            format!("DATE '{y:04}-{m:02}-{d:02}'")
        }
    }
}

/// `expr` with every node parenthesised.
fn full(expr: &Expr) -> String {
    match expr {
        Expr::Column(name) => name.clone(),
        Expr::Literal(v) => literal(v),
        Expr::Binary { left, op, right } => format!("({} {op} {})", full(left), full(right)),
        Expr::Not(e) => format!("(NOT {})", full(e)),
        Expr::IsNull(e) => format!("({} IS NULL)", full(e)),
        Expr::Contains { .. } => unreachable!("not generated"),
    }
}

/// `expr` with only the parentheses its place needs: `min` is the lowest
/// precedence that may stand there unparenthesised (OR 1, AND 2, NOT 3,
/// comparisons 4, `+ -` 5, `* /` 6, atoms 7). The parser rebalances a flat
/// AND or OR chain, so a same-operator child keeps its parentheses.
fn minimal(expr: &Expr, min: u8) -> String {
    let (level, text) = match expr {
        Expr::Column(_) | Expr::Literal(_) => (7, full(expr)),
        Expr::Binary { left, op, right } => {
            let (level, l, r) = match op {
                BinOp::Or => (1, 2, 2),
                BinOp::And => (2, 3, 3),
                BinOp::Add | BinOp::Sub => (5, 5, 6),
                BinOp::Mul | BinOp::Div => (6, 6, 7),
                _ => (4, 5, 5),
            };
            (
                level,
                format!("{} {op} {}", minimal(left, l), minimal(right, r)),
            )
        }
        Expr::Not(e) => (3, format!("NOT {}", minimal(e, 3))),
        Expr::IsNull(e) => (4, format!("{} IS NULL", minimal(e, 5))),
        Expr::Contains { .. } => unreachable!("not generated"),
    };
    if level < min {
        format!("({text})")
    } else {
        text
    }
}
