//! The exec kernels through the whole engine: the float total order on
//! ORDER BY / GROUP BY / join keys, integer overflow as an error the
//! transaction survives, and Top-N pushdown into the scan morsels.

use polaris_columnar::ColumnVector;
use polaris_core::{DataType, Field, PolarisEngine, RecordBatch, Schema, Session, Value};
use std::sync::Arc;

/// 128-row groups (`EngineConfig::for_testing`), so small tables still
/// span several morsels.
fn engine() -> Arc<PolarisEngine> {
    PolarisEngine::in_memory()
}

fn column(batch: &RecordBatch, name: &str) -> Vec<Value> {
    let col = batch.column_by_name(name).unwrap();
    (0..batch.num_rows()).map(|i| col.value(i)).collect()
}

fn ints(batch: &RecordBatch, name: &str) -> Vec<i64> {
    column(batch, name)
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect()
}

/// `t(id, x)` with NaNs, both zeros and a NULL in `x`, loaded through
/// `insert_batch` (SQL has no NaN literal).
fn nan_table(session: &mut Session) {
    session
        .execute("CREATE TABLE t (id BIGINT, x FLOAT NULL)")
        .unwrap();
    let nan = f64::NAN;
    let mut x = ColumnVector::Float64 {
        values: vec![nan, 1.0, -0.0, nan, 0.0, -2.5],
        validity: None,
    };
    x.push(&Value::Null).unwrap();
    let batch = RecordBatch::new(
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("x", DataType::Float64),
        ]),
        vec![
            ColumnVector::Int64 {
                values: (0..7).collect(),
                validity: None,
            },
            x,
        ],
    )
    .unwrap();
    session.insert_batch("t", &batch).unwrap();
}

#[test]
fn nan_keys_order_group_and_join() {
    let engine = engine();
    let mut s = engine.session();
    nan_table(&mut s);
    // NULL first, numbers ascending with -0.0 == 0.0, NaN after them all.
    let asc = s.query("SELECT id FROM t ORDER BY x").unwrap();
    assert_eq!(ints(&asc, "id"), [6, 5, 2, 4, 1, 0, 3]);
    let desc = s.query("SELECT id FROM t ORDER BY x DESC LIMIT 3").unwrap();
    assert_eq!(ints(&desc, "id"), [0, 3, 1]);
    // All NaNs are one group, both zeros one group.
    let groups = s
        .query("SELECT x, COUNT(*) AS n FROM t GROUP BY x ORDER BY x")
        .unwrap();
    assert_eq!(ints(&groups, "n"), [1, 1, 2, 1, 2]);
    assert!(matches!(column(&groups, "x")[4], Value::Float(f) if f.is_nan()));
    // NaN = NaN as a join key; NULL matches nothing.
    let joined = s
        .query("SELECT COUNT(*) AS n FROM t a JOIN t b ON a.x = b.x")
        .unwrap();
    assert_eq!(ints(&joined, "n"), [2 * 2 + 2 * 2 + 1 + 1]);
}

/// AVG beside a SUM of the same input, and one aggregate under two names,
/// answer as each would alone, across several morsels and a NULL-holding
/// float column (its sums are exact, so any order of adding agrees).
#[test]
fn shared_partials_answer_as_separate_ones() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE g (grp VARCHAR, f FLOAT NULL, i BIGINT)")
        .unwrap();
    let f = |k: i64| (k % 11 != 0).then_some((k % 7) as f64 * 0.25);
    let rows: Vec<String> = (0..300i64)
        .map(|k| {
            let fv = f(k).map_or("NULL".to_owned(), |v| v.to_string());
            format!("('g{}', {fv}, {})", k % 3, k * 3 - 100)
        })
        .collect();
    s.execute(&format!("INSERT INTO g VALUES {}", rows.join(", ")))
        .unwrap();
    let got = s
        .query(
            "SELECT grp, SUM(f) AS sf, AVG(f) AS af, SUM(f) AS sf2, SUM(i) AS si, \
             AVG(i) AS ai, COUNT(i) AS n FROM g GROUP BY grp ORDER BY grp",
        )
        .unwrap();
    let want: Vec<Vec<Value>> = (0..3i64)
        .map(|grp| {
            let ks: Vec<i64> = (0..300).filter(|k| k % 3 == grp).collect();
            let fs: Vec<f64> = ks.iter().filter_map(|&k| f(k)).collect();
            let sf = fs.iter().sum::<f64>();
            let si = ks.iter().map(|k| k * 3 - 100).sum::<i64>();
            vec![
                Value::Str(format!("g{grp}")),
                Value::Float(sf),
                Value::Float(sf / fs.len() as f64),
                Value::Float(sf),
                Value::Int(si),
                Value::Float(si as f64 / ks.len() as f64),
                Value::Int(ks.len() as i64),
            ]
        })
        .collect();
    let got: Vec<Vec<Value>> = (0..got.num_rows()).map(|r| got.row(r)).collect();
    assert_eq!(got, want);
}

#[test]
fn nan_rows_do_not_prune_the_numbers_beside_them() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, x FLOAT)").unwrap();
    // NaN first: the chunk's first non-null value seeds its min/max.
    let batch = RecordBatch::new(
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("x", DataType::Float64),
        ]),
        vec![
            ColumnVector::Int64 {
                values: (0..64).collect(),
                validity: None,
            },
            ColumnVector::Float64 {
                values: (0..64)
                    .map(|i| if i < 16 { f64::NAN } else { 5.0 })
                    .collect(),
                validity: None,
            },
        ],
    )
    .unwrap();
    s.insert_batch("t", &batch).unwrap();
    // The chunk's bounds are its numbers, so it is scanned and the NaN
    // operand is the comparison error it always was, never an empty answer.
    for sql in [
        "SELECT COUNT(*) AS n FROM t WHERE x > 2.0",
        "SELECT COUNT(*) AS n FROM t WHERE x < 7.0",
    ] {
        let err = s.query(sql).unwrap_err().to_string();
        assert!(err.contains("cannot compare"), "{sql}: {err}");
    }
}

#[test]
fn integer_overflow_is_an_error_and_the_transaction_survives() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE big (k BIGINT, v BIGINT)").unwrap();
    s.execute(&format!(
        "INSERT INTO big VALUES (1, {}), (2, {}), (3, 5)",
        i64::MAX,
        i64::MAX - 1
    ))
    .unwrap();
    s.execute("BEGIN").unwrap();
    for sql in [
        "SELECT SUM(v) AS s FROM big",
        "SELECT k, v + v AS d FROM big",
        "SELECT k FROM big WHERE v * 2 > 0",
        "UPDATE big SET v = v + 2 WHERE k < 3",
    ] {
        let err = s.execute(sql).unwrap_err().to_string();
        assert!(err.contains("arithmetic overflow"), "{sql}: {err}");
    }
    // Same transaction, same snapshot, still working.
    let sum = s.query("SELECT SUM(v) AS s FROM big WHERE k = 3").unwrap();
    assert_eq!(ints(&sum, "s"), [5]);
    // AVG sums in f64 on the scan path as it does behind a join: no overflow.
    let want = [Value::Float(
        (i64::MAX as f64 + (i64::MAX - 1) as f64 + 5.0) / 3.0,
    )];
    for sql in [
        "SELECT AVG(v) AS a FROM big",
        "SELECT AVG(l.v) AS a FROM big l JOIN big r ON l.k = r.k",
    ] {
        assert_eq!(column(&s.query(sql).unwrap(), "a"), want, "{sql}");
    }
    s.execute("UPDATE big SET v = v + 1 WHERE k = 3").unwrap();
    s.execute("COMMIT").unwrap();
    let rows = s.query("SELECT v FROM big ORDER BY k").unwrap();
    assert_eq!(ints(&rows, "v"), [i64::MAX, i64::MAX - 1, 6]);
}

#[test]
fn top_n_pushdown_equals_sort_then_limit() {
    let engine = engine();
    let mut s = engine.session();
    s.execute("CREATE TABLE m (id BIGINT, v BIGINT NULL, tag VARCHAR)")
        .unwrap();
    // Three files of several 128-row groups each; `v` repeats and has
    // NULLs, so the cut-off falls inside runs of equal keys.
    for file in 0..3i64 {
        let rows: Vec<String> = (0..300)
            .map(|i| {
                let id = file * 300 + i;
                let v = match id % 11 {
                    0 => "NULL".to_owned(),
                    _ => ((id * 7) % 13).to_string(),
                };
                format!("({id}, {v}, 't{}')", id % 5)
            })
            .collect();
        s.execute(&format!("INSERT INTO m VALUES {}", rows.join(", ")))
            .unwrap();
    }
    for order in ["v", "v DESC", "tag DESC, v", "v, id DESC"] {
        let full = s
            .query(&format!("SELECT id, v, tag FROM m ORDER BY {order}"))
            .unwrap();
        for n in [0, 1, 10, 129, 2000] {
            let top = s
                .query(&format!(
                    "SELECT id, v, tag FROM m ORDER BY {order} LIMIT {n}"
                ))
                .unwrap();
            assert_eq!(top, full.head(n), "ORDER BY {order} LIMIT {n}");
            // ORDER BY over a column the projection drops takes the same path.
            let ids = s
                .query(&format!("SELECT id FROM m ORDER BY {order} LIMIT {n}"))
                .unwrap();
            assert_eq!(ints(&ids, "id"), ints(&top, "id"), "{order} LIMIT {n}");
        }
    }
    // With a predicate in front of it.
    let top = s
        .query("SELECT id FROM m WHERE v > 10 ORDER BY v DESC, id LIMIT 4")
        .unwrap();
    let full = s
        .query("SELECT id FROM m WHERE v > 10 ORDER BY v DESC, id")
        .unwrap();
    assert_eq!(ints(&top, "id"), ints(&full, "id")[..4]);
}

#[test]
fn system_tables_order_by_a_dropped_column() {
    let engine = engine();
    let mut s = engine.session();
    let names = s
        .query("SELECT name FROM polaris.metrics ORDER BY value DESC, name LIMIT 5")
        .unwrap();
    assert_eq!(names.num_columns(), 1);
    assert_eq!(names.num_rows(), 5);
}
