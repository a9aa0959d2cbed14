//! Hostile SQL must not abort the process. A stack overflow cannot be
//! caught, so a statement nested far past the parser's limit has to be
//! refused with an error — on a thread with the 2 MiB stack that pool and
//! server threads get — and the session goes on serving statements.

use polaris::core::PolarisEngine;

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let engine = PolarisEngine::in_memory();
    let session = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut s = engine.session();
            s.execute("CREATE TABLE t (a BIGINT)").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
            let count = |s: &mut polaris::core::Session| {
                let rows = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
                rows.row(0)[0].as_int()
            };
            let deep = 10_000;
            for hostile in [
                format!("SELECT {}a{} FROM t", "(".repeat(deep), ")".repeat(deep)),
                format!("SELECT {}a FROM t", "- ".repeat(deep)),
                format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(deep)),
            ] {
                assert!(s.execute(&hostile).is_err(), "{}", &hostile[..40]);
                assert_eq!(count(&mut s), Some(1), "the next statement runs");
            }
            // Nesting inside the limit still gets its answer.
            let shallow = 120;
            let sql = format!(
                "SELECT {}a{} AS x FROM t WHERE {}a = 1",
                "(".repeat(shallow),
                ")".repeat(shallow),
                "NOT NOT ".repeat(shallow / 2),
            );
            let rows = s.query(&sql).unwrap();
            assert_eq!(rows.row(0)[0].as_int(), Some(1));
        });
    session.unwrap().join().unwrap();
}

#[test]
fn long_flat_chains_answer_or_are_refused() {
    let engine = PolarisEngine::in_memory();
    let session = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut s = engine.session();
            s.execute("CREATE TABLE t (a BIGINT)").unwrap();
            s.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            let count = |s: &mut polaris::core::Session, predicate: &str| {
                let sql = format!("SELECT COUNT(*) AS n FROM t WHERE {predicate}");
                let rows = s.query(&sql).unwrap();
                rows.row(0)[0].as_int()
            };
            let terms = 100_000;
            // AND and OR chains are balanced as they are parsed, so they
            // answer however long they are.
            let all_ones = vec!["a = 1"; terms].join(" AND ");
            assert_eq!(count(&mut s, &all_ones), Some(1));
            assert_eq!(count(&mut s, "a > 0"), Some(3), "the next statement runs");
            let mut any = vec!["a = 2"; terms - 1];
            any.push("a = 1");
            assert_eq!(count(&mut s, &any.join(" OR ")), Some(2));
            assert_eq!(count(&mut s, "a > 0"), Some(3), "the next statement runs");
            // An arithmetic chain is one level per operator: refused.
            let sum = vec!["1"; terms].join(" + ");
            assert!(s.execute(&format!("SELECT {sum} FROM t")).is_err());
            assert_eq!(count(&mut s, "a > 0"), Some(3), "the next statement runs");
        });
    session.unwrap().join().unwrap();
}

#[test]
fn between_over_a_between_is_refused() {
    let engine = PolarisEngine::in_memory();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (a BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let mut count = |predicate: &str| {
        let sql = format!("SELECT COUNT(*) AS n FROM t WHERE {predicate}");
        s.query(&sql).map(|rows| rows.row(0)[0].as_int())
    };
    assert_eq!(count("a BETWEEN 2 AND 3").unwrap(), Some(2));
    assert_eq!(count("a * 2 + 1 BETWEEN 4 AND 6").unwrap(), Some(1));
    // `e BETWEEN lo AND hi` tests `e` twice, so a BETWEEN inside `e` would
    // double the tree per level: refused, whatever the types.
    let err = count("(a BETWEEN 1 AND 2) BETWEEN 0 AND 1").unwrap_err();
    assert!(err.to_string().contains("BETWEEN"), "{err}");
    assert_eq!(count("a > 0").unwrap(), Some(3), "the next statement runs");
}
