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
