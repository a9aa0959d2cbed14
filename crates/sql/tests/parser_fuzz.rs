//! Parser robustness: arbitrary input must never panic — only return
//! structured errors — valid statements must round-trip through
//! parse → plan without panicking either, and no nesting depth may
//! overflow the stack.

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
    /// mix, up to 20 000 levels — parse within the nesting limit and are
    /// refused past it; neither parsing nor planning overflows the stack.
    #[test]
    fn deep_nesting_is_bounded(
        kinds in proptest::collection::vec(0u8..3, 1..8),
        depth in 0usize..20_000,
        near_limit in any::<bool>(),
    ) {
        let depth = if near_limit { depth % 150 } else { depth };
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
        sql.push('1');
        sql.push_str(&")".repeat(closing));
        sql.push_str(" FROM t");
        // The select item itself is the first level.
        match polaris_sql::parse(&sql) {
            Ok(stmt) => {
                prop_assert!(depth < 128, "{depth} levels parsed");
                if let polaris_sql::Statement::Select(sel) = stmt {
                    let _ = polaris_sql::plan_select(&sel);
                }
            }
            Err(_) => prop_assert!(depth >= 128, "{depth} levels refused"),
        }
    }
}
