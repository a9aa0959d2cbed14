//! Property oracle for the morsel scan path: any partition of a file's
//! row groups into morsels — including one group per morsel and one
//! morsel spanning the whole file — must produce batch-for-row identical
//! results to the single-node [`scan_snapshot`] reference, under random
//! projections, predicates, delete vectors, and row-group sizes — and
//! cutting every morsel batch to its Top-N before the final Top-N must equal the
//! reference scan, sorted and limited. DELETE reads through the same plan,
//! so `delete_matching` must delete exactly the rows the reference lazy
//! scan returns.

mod common;

use common::{scan_cell_lazy, scan_snapshot};
use polaris_columnar::{DataType, DeleteVector, Field, RecordBatch, Schema, Value, WriterOptions};
use polaris_exec::scan::scan_cell;
use polaris_exec::write::{delete_matching, write_data_file};
use polaris_exec::{cells_of_snapshot, ops, plan_file_scan, BinOp, Expr, ScanMorsel};
use polaris_lst::{Manifest, ManifestAction, SequenceId, TableSnapshot};
use polaris_store::{BlobPath, MemoryStore, ObjectStore, Stamp};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::nullable("v", DataType::Int64),
    ])
}

fn batch_of(rows: &[(i64, Option<i64>)]) -> RecordBatch {
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|(id, v)| vec![Value::Int(*id), v.map_or(Value::Null, Value::Int)])
        .collect();
    RecordBatch::from_rows(schema(), &data).unwrap()
}

/// Build a store + snapshot from per-file row sets and per-file deleted
/// row indexes (indexes beyond the file's row count are ignored).
fn setup(
    files: &[Vec<(i64, Option<i64>)>],
    deletes: &[Vec<usize>],
    row_group_rows: usize,
) -> (MemoryStore, TableSnapshot) {
    let store = MemoryStore::new();
    let opts = WriterOptions {
        row_group_rows,
        ..Default::default()
    };
    let mut actions = Vec::new();
    for (i, rows) in files.iter().enumerate() {
        let path = format!("t/f{i}");
        write_data_file(&store, &path, &batch_of(rows), opts, Stamp(1)).unwrap();
        actions.push(ManifestAction::add_file(
            path.clone(),
            rows.len() as u64,
            0,
            i as u32,
        ));
        let dv_rows: Vec<usize> = deletes
            .get(i)
            .map(|del| del.iter().filter(|&&r| r < rows.len()).copied().collect())
            .unwrap_or_default();
        if !dv_rows.is_empty() {
            let dv_path = format!("{path}.dv");
            let dv = DeleteVector::from_rows(dv_rows);
            store
                .put(
                    &BlobPath::new(dv_path.clone()).unwrap(),
                    dv.to_bytes(),
                    Stamp(2),
                )
                .unwrap();
            actions.push(ManifestAction::add_dv(path, dv_path, 2));
        }
    }
    let m = Manifest::from_actions(actions);
    let snap = TableSnapshot::from_manifests([(SequenceId(1), &m)]).unwrap();
    (store, snap)
}

fn predicate_of(kind: u8, c: i64) -> Option<Expr> {
    match kind % 5 {
        0 => None,
        1 => Some(Expr::col("id").lt(Expr::lit(c))),
        2 => Some(Expr::col("id").gt_eq(Expr::lit(c))),
        3 => Some(Expr::col("id").eq(Expr::lit(c))),
        _ => Some(Expr::col("v").gt(Expr::lit(c))),
    }
}

fn projection_of(kind: u8) -> Option<Vec<&'static str>> {
    match kind % 4 {
        0 => None,
        1 => Some(vec!["id"]),
        2 => Some(vec!["v"]),
        _ => Some(vec!["id", "v"]),
    }
}

fn rows_of(batch: &RecordBatch) -> Vec<Vec<Value>> {
    (0..batch.num_rows()).map(|i| batch.row(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Morsel scan ≡ scan_snapshot, for every morsel partition.
    #[test]
    fn morsel_scan_matches_scan_snapshot(
        files in proptest::collection::vec(
            proptest::collection::vec((-20i64..20, proptest::option::of(-50i64..50)), 1..40),
            1..4,
        ),
        deletes in proptest::collection::vec(
            proptest::collection::vec(0usize..40, 0..10),
            0..4,
        ),
        row_group_rows in 1usize..8,
        pred_kind in 0u8..5,
        pred_const in -20i64..20,
        proj_kind in 0u8..4,
        cuts in proptest::collection::vec(1usize..64, 0..6),
        order_desc in any::<bool>(),
        limit in 0usize..12,
    ) {
        let (store, snap) = setup(&files, &deletes, row_group_rows);
        let predicate = predicate_of(pred_kind, pred_const);
        let projection = projection_of(proj_kind);

        let expected = scan_snapshot(
            &store,
            &snap,
            &schema(),
            projection.as_deref(),
            predicate.as_ref(),
        )
        .unwrap();

        // The scan's fetch set mirrors core::read::needed_columns: the
        // projected columns plus whatever the predicate references.
        let needed: Option<BTreeSet<String>> = projection.as_ref().map(|cols| {
            let mut set: BTreeSet<String> =
                cols.iter().map(|c| (*c).to_owned()).collect();
            if let Some(p) = &predicate {
                p.referenced_columns(&mut set);
            }
            set
        });

        let mut batches = Vec::new();
        for (file_index, cell) in cells_of_snapshot(&snap).iter().enumerate() {
            let Some(plan) = plan_file_scan(
                &store,
                cell,
                file_index,
                needed.as_ref(),
                predicate.as_ref(),
                None,
            )
            .unwrap() else {
                continue;
            };
            // Cut the file's group range at the random boundaries. No cuts
            // = one whole-file morsel; enough cuts = one group per morsel.
            let n_groups = plan.footer.row_groups().len();
            let mut bounds: Vec<usize> = cuts
                .iter()
                .map(|c| c % n_groups)
                .filter(|&c| c > 0)
                .collect();
            bounds.push(0);
            bounds.push(n_groups);
            bounds.sort_unstable();
            bounds.dedup();
            for pair in bounds.windows(2) {
                let morsel = ScanMorsel {
                    plan: std::sync::Arc::clone(&plan),
                    group_lo: pair[0],
                    group_hi: pair[1],
                };
                let out = morsel.run(&store, None, None).unwrap();
                for batch in out.batches {
                    let projected = match &projection {
                        Some(cols) => batch.project(cols).unwrap(),
                        None => batch,
                    };
                    batches.push(projected);
                }
            }
        }

        let got_rows: Vec<Vec<Value>> = batches.iter().flat_map(rows_of).collect();
        prop_assert_eq!(&got_rows, &rows_of(&expected));

        // Top-N pushdown as core::read does it: each morsel batch keeps
        // its best `limit` rows, the FE concatenates in (file, group)
        // order and takes the Top-N again. Keys repeat and `v` has NULLs,
        // so ties must fall as in a stable sort of the whole scan.
        let order_col = expected.schema().fields()[0].name.clone();
        let order_by = [(order_col, order_desc)];
        let reduced: Vec<RecordBatch> = batches
            .iter()
            .map(|b| ops::top_n(b, &order_by, limit).unwrap())
            .collect();
        let top = match reduced.is_empty() {
            true => Vec::new(),
            false => rows_of(
                &ops::top_n(&RecordBatch::concat(&reduced).unwrap(), &order_by, limit).unwrap(),
            ),
        };
        let reference = ops::limit(&ops::sort(&expected, &order_by).unwrap(), limit);
        prop_assert_eq!(&top, &rows_of(&reference));
        if !got_rows.is_empty() {
            let got = RecordBatch::concat(&batches).unwrap();
            let got_names: Vec<&str> =
                got.schema().fields().iter().map(|f| f.name.as_str()).collect();
            let want_names: Vec<&str> = expected
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            prop_assert_eq!(got_names, want_names);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DELETE ≡ the reference scan: `delete_matching` newly deletes exactly
    /// the rows the scan returns and keeps the old deletes, under random
    /// predicates, delete vectors and row-group sizes — and UPDATE's eager
    /// `scan_cell` finds the same delete vector.
    #[test]
    fn delete_matching_deletes_what_the_reference_scan_returns(
        vs in proptest::collection::vec(proptest::option::of(-50i64..50), 1..40),
        deleted in proptest::collection::vec(0usize..40, 0..10),
        row_group_rows in 1usize..8,
        pred_kind in 1u8..5,
        pred_const in -20i64..40,
    ) {
        // `id` is the row's index in the file, so the ids a scan returns
        // are the file-relative indexes a delete vector holds.
        let rows: Vec<(i64, Option<i64>)> =
            vs.iter().enumerate().map(|(i, v)| (i as i64, *v)).collect();
        let (store, snap) = setup(&[rows], std::slice::from_ref(&deleted), row_group_rows);
        let predicate = predicate_of(pred_kind, pred_const).expect("kinds 1..5 are predicates");
        let cell = &cells_of_snapshot(&snap)[0];

        let matching: BTreeSet<usize> = scan_cell_lazy(&store, cell, None, Some(&predicate))
            .unwrap()
            .iter()
            .flat_map(rows_of)
            .map(|row| row[0].as_int().unwrap() as usize)
            .collect();
        let old: BTreeSet<usize> = deleted.iter().copied().filter(|r| *r < vs.len()).collect();
        let outcome = delete_matching(&store, cell, &predicate).unwrap();
        let eager = scan_cell(&store, cell, None, Some(&predicate)).unwrap();
        prop_assert_eq!(eager.map(|(_, deletes)| deletes), outcome.clone());
        match outcome {
            None => prop_assert!(matching.is_empty()),
            Some(outcome) => {
                prop_assert_eq!(outcome.newly_deleted as usize, matching.len());
                prop_assert!(outcome.newly_deleted > 0);
                let merged = DeleteVector::from_rows(old.union(&matching).copied());
                prop_assert_eq!(outcome.merged, merged);
            }
        }
    }
}

/// A deleted row is not a row: its value must not reach the predicate. Here
/// the deleted `v` overflows `v * 2`, which the reference scan — mask first,
/// then evaluate — never computes.
#[test]
fn deleted_row_cannot_raise_a_predicate_error() {
    let rows = vec![(1, Some(10)), (2, Some(i64::MAX)), (3, Some(30))];
    let (store, snap) = setup(&[rows], &[vec![1]], 8);
    let predicate = Expr::col("v")
        .binary(BinOp::Mul, Expr::lit(2i64))
        .gt(Expr::lit(25i64));
    let expected = scan_snapshot(&store, &snap, &schema(), None, Some(&predicate)).unwrap();
    assert_eq!(
        rows_of(&expected),
        vec![vec![Value::Int(3), Value::Int(30)]]
    );

    let cell = &cells_of_snapshot(&snap)[0];
    let plan = plan_file_scan(&store, cell, 0, None, Some(&predicate), None)
        .unwrap()
        .expect("not pruned");
    let out = plan.whole_file_morsel().run(&store, None, None).unwrap();
    let got: Vec<Vec<Value>> = out.batches.iter().flat_map(rows_of).collect();
    assert_eq!(got, rows_of(&expected));
}

/// Fixed cases against the references, on a three-column file with a
/// delete vector: the whole-file morsel, a split pair, and the byte count
/// of a selective projected scan.
mod fixed_cases {
    use crate::common::{scan_cell_lazy_metered, scan_snapshot};
    use polaris_columnar::{
        DataType, DeleteVector, Field, RecordBatch, Schema, Value, WriterOptions,
    };
    use polaris_exec::write::write_data_file;
    use polaris_exec::{cells_of_snapshot, plan_file_scan, Cell, Expr, MorselScanOutput};
    use polaris_lst::{Manifest, ManifestAction, SequenceId, TableSnapshot};
    use polaris_obs::ScanMeter;
    use polaris_store::{BlobPath, MemoryStore, ObjectStore, Stamp};
    use std::collections::BTreeSet;
    use std::ops::Range;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("score", DataType::Float64),
        ])
    }

    fn batch(range: Range<i64>) -> RecordBatch {
        let rows: Vec<Vec<Value>> = range
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(format!("row{i}")),
                    Value::Float(i as f64 * 0.5),
                ]
            })
            .collect();
        RecordBatch::from_rows(schema(), &rows).unwrap()
    }

    fn setup() -> (MemoryStore, TableSnapshot) {
        let store = MemoryStore::new();
        let opts = WriterOptions {
            row_group_rows: 4,
            ..Default::default()
        };
        write_data_file(&store, "t/f1", &batch(0..16), opts, Stamp(1)).unwrap();
        let dv = DeleteVector::from_rows([0, 5]);
        store
            .put(&BlobPath::new("t/f1.dv").unwrap(), dv.to_bytes(), Stamp(2))
            .unwrap();
        let m = Manifest::from_actions(vec![
            ManifestAction::add_file("t/f1", 16, 0, 0),
            ManifestAction::add_dv("t/f1", "t/f1.dv", 2),
        ]);
        let snap = TableSnapshot::from_manifests([(SequenceId(1), &m)]).unwrap();
        (store, snap)
    }

    fn concat_morsels(mut outs: Vec<MorselScanOutput>) -> RecordBatch {
        outs.sort_by_key(|o| (o.file_index, o.group_lo));
        let batches: Vec<RecordBatch> = outs.into_iter().flat_map(|o| o.batches).collect();
        RecordBatch::concat(&batches).unwrap()
    }

    #[test]
    fn whole_file_morsel_matches_lazy_scan() {
        let (store, snap) = setup();
        let cell = cells_of_snapshot(&snap).remove(0);
        let pred = Expr::col("id").gt_eq(Expr::lit(3i64));
        let plan = plan_file_scan(&store, &cell, 0, None, Some(&pred), None)
            .unwrap()
            .unwrap();
        let out = plan.whole_file_morsel().run(&store, None, None).unwrap();
        let got = concat_morsels(vec![out]);
        let want = scan_cell_lazy_metered(&store, &cell, None, Some(&pred), None)
            .unwrap()
            .unwrap();
        assert_eq!(got.num_rows(), want.num_rows());
        for i in 0..got.num_rows() {
            assert_eq!(got.column(0).value(i), want.column(0).value(i));
            assert_eq!(got.column(1).value(i), want.column(1).value(i));
        }
    }

    #[test]
    fn split_covers_all_groups_and_matches() {
        let (store, snap) = setup();
        let cell = cells_of_snapshot(&snap).remove(0);
        let plan = plan_file_scan(&store, &cell, 0, None, None, None)
            .unwrap()
            .unwrap();
        let whole = plan.whole_file_morsel();
        let (a, b) = whole.split().unwrap();
        assert_eq!(a.group_lo, 0);
        assert_eq!(a.group_hi, b.group_lo);
        assert_eq!(b.group_hi, 4);
        let (a2, a3) = a.split().unwrap_or((a.clone(), a.clone()));
        let _ = (a2, a3);
        let outs = vec![
            a.run(&store, None, None).unwrap(),
            b.run(&store, None, None).unwrap(),
        ];
        let got = concat_morsels(outs);
        let want = scan_snapshot(&store, &snap, &schema(), None, None).unwrap();
        assert_eq!(got.num_rows(), want.num_rows());
        for i in 0..got.num_rows() {
            assert_eq!(got.column(0).value(i), want.column(0).value(i));
        }
    }

    #[test]
    fn late_materialization_skips_chunks_and_bytes() {
        // Selective predicate on `id`, projecting `name`: groups with no
        // matching rows must not transfer their `name`/`score` chunks.
        let (store, _snap) = setup();
        let cell = Cell {
            file: "t/f1".into(),
            rows: 16,
            bytes: 0,
            distribution: 0,
            dv_path: None,
            col_ranges: Vec::new(),
        };
        let needed: BTreeSet<String> = ["id".to_owned(), "name".to_owned()].into();
        let pred = Expr::col("id").eq(Expr::lit(9i64));
        let meter = ScanMeter::default();
        let plan = plan_file_scan(&store, &cell, 0, Some(&needed), Some(&pred), Some(&meter))
            .unwrap()
            .unwrap();
        assert_eq!(plan.pred_cols, vec![0]);
        assert_eq!(plan.rest_cols, vec![1]);
        let out = plan
            .whole_file_morsel()
            .run(&store, None, Some(&meter))
            .unwrap();
        let got = concat_morsels(vec![out]);
        assert_eq!(got.num_rows(), 1);
        assert_eq!(got.column(1).value(0), Value::Str("row9".into()));
        // Groups of 4 rows; only group 2 (rows 8..12) matches id == 9 on
        // stats, so zero groups survive eval with no skip... stats prune
        // already removed the others. With exact-match stats pruning the
        // skip counter may be 0 here; assert byte narrowing instead.
        let lazy_meter = ScanMeter::default();
        scan_cell_lazy_metered(&store, &cell, Some(&needed), Some(&pred), Some(&lazy_meter))
            .unwrap()
            .unwrap();
        assert!(
            ScanMeter::read(&meter.bytes_read) <= ScanMeter::read(&lazy_meter.bytes_read),
            "morsel path must not read more than the lazy path"
        );
    }
}
