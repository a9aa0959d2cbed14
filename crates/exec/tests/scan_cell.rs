//! The eager `scan_cell`, file by file over a snapshot: delete-vector
//! masking, the three levels of statistics pruning, projection, and the
//! shape of an empty result.

mod common;

use common::scan_snapshot;
use polaris_columnar::{DataType, DeleteVector, Field, RecordBatch, Schema, Value, WriterOptions};
use polaris_exec::scan::scan_cell;
use polaris_exec::write::write_data_file;
use polaris_exec::{Cell, Expr};
use polaris_lst::{Manifest, ManifestAction, SequenceId, TableSnapshot};
use polaris_store::{BlobPath, MemoryStore, ObjectStore, Stamp};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ])
}

fn batch(range: std::ops::Range<i64>) -> RecordBatch {
    let rows: Vec<Vec<Value>> = range
        .map(|i| vec![Value::Int(i), Value::Str(format!("row{i}"))])
        .collect();
    RecordBatch::from_rows(schema(), &rows).unwrap()
}

/// Store with two files (ids 0..10 and 10..20), the first carrying a DV
/// deleting rows 0 and 1 (ids 0, 1).
fn setup() -> (MemoryStore, TableSnapshot) {
    let store = MemoryStore::new();
    let opts = WriterOptions {
        row_group_rows: 4,
        ..Default::default()
    };
    write_data_file(&store, "t/f1", &batch(0..10), opts, Stamp(1)).unwrap();
    write_data_file(&store, "t/f2", &batch(10..20), opts, Stamp(1)).unwrap();
    let dv = DeleteVector::from_rows([0, 1]);
    store
        .put(&BlobPath::new("t/f1.dv").unwrap(), dv.to_bytes(), Stamp(2))
        .unwrap();
    let m = Manifest::from_actions(vec![
        ManifestAction::add_file("t/f1", 10, 0, 0),
        ManifestAction::add_file("t/f2", 10, 0, 1),
        ManifestAction::add_dv("t/f1", "t/f1.dv", 2),
    ]);
    let snap = TableSnapshot::from_manifests([(SequenceId(1), &m)]).unwrap();
    (store, snap)
}

#[test]
fn full_scan_masks_deleted_rows() {
    let (store, snap) = setup();
    let out = scan_snapshot(&store, &snap, &schema(), None, None).unwrap();
    assert_eq!(out.num_rows(), 18); // 20 physical - 2 deleted
    let ids: Vec<i64> = (0..out.num_rows())
        .map(|i| out.column(0).value(i).as_int().unwrap())
        .collect();
    assert!(!ids.contains(&0) && !ids.contains(&1));
    assert!(ids.contains(&2) && ids.contains(&19));
}

#[test]
fn predicate_pushdown_prunes_files() {
    let (store, snap) = setup();
    // id >= 15 only lives in f2; f1 (ids 0..10) must be pruned before
    // decode — verified indirectly through correct results, and
    // directly through scan_cell returning None.
    let pred = Expr::col("id").gt_eq(Expr::lit(15i64));
    let out = scan_snapshot(&store, &snap, &schema(), None, Some(&pred)).unwrap();
    assert_eq!(out.num_rows(), 5);
    let f1_cell = Cell {
        file: "t/f1".into(),
        rows: 10,
        bytes: 0,
        distribution: 0,
        dv_path: Some("t/f1.dv".into()),
        col_ranges: Vec::new(),
    };
    assert!(scan_cell(&store, &f1_cell, None, Some(&pred))
        .unwrap()
        .is_none());
}

#[test]
fn row_group_pruning_within_file() {
    let (store, snap) = setup();
    // Row groups of 4 rows: id = 9 touches only the last group of f1.
    let pred = Expr::col("id").eq(Expr::lit(9i64));
    let out = scan_snapshot(&store, &snap, &schema(), None, Some(&pred)).unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.column(1).value(0), Value::Str("row9".into()));
}

#[test]
fn dv_masking_respects_row_group_offsets() {
    // Delete a row in a *later* row group (row 7 of f1, groups of 4):
    // the file-relative index must survive the group split.
    let store = MemoryStore::new();
    let opts = WriterOptions {
        row_group_rows: 4,
        ..Default::default()
    };
    write_data_file(&store, "t/f", &batch(0..10), opts, Stamp(1)).unwrap();
    let dv = DeleteVector::from_rows([7]);
    store
        .put(&BlobPath::new("t/f.dv").unwrap(), dv.to_bytes(), Stamp(1))
        .unwrap();
    let cell = Cell {
        file: "t/f".into(),
        rows: 10,
        bytes: 0,
        distribution: 0,
        dv_path: Some("t/f.dv".into()),
        col_ranges: Vec::new(),
    };
    let (out, _) = scan_cell(&store, &cell, None, None).unwrap().unwrap();
    let ids: Vec<i64> = (0..out.num_rows())
        .map(|i| out.column(0).value(i).as_int().unwrap())
        .collect();
    assert_eq!(ids.len(), 9);
    assert!(!ids.contains(&7));
}

#[test]
fn projection_narrows_columns() {
    let (store, snap) = setup();
    let out = scan_snapshot(&store, &snap, &schema(), Some(&["name"]), None).unwrap();
    assert_eq!(out.num_columns(), 1);
    assert_eq!(out.schema().fields()[0].name, "name");
}

#[test]
fn empty_result_keeps_projected_shape() {
    let (store, snap) = setup();
    let pred = Expr::col("id").gt(Expr::lit(1000i64));
    let out = scan_snapshot(&store, &snap, &schema(), Some(&["id"]), Some(&pred)).unwrap();
    assert_eq!(out.num_rows(), 0);
    assert_eq!(out.num_columns(), 1);
}

#[test]
fn scan_empty_snapshot() {
    let store = MemoryStore::new();
    let snap = TableSnapshot::empty();
    let out = scan_snapshot(&store, &snap, &schema(), None, None).unwrap();
    assert_eq!(out.num_rows(), 0);
    assert_eq!(out.num_columns(), 2);
}
