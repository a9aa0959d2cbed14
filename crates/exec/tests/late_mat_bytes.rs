//! Measured transfer-volume comparison: on a selective projected scan,
//! the morsel path's late materialization must fetch *strictly fewer*
//! bytes than the pre-refactor lazy path, not just "about the same".
//!
//! The scenario that separates the two: row groups whose chunk stats
//! survive the predicate (so neither path can prune them) but where no
//! row actually matches. The lazy path fetches every needed column for
//! such a group; the morsel path fetches only the predicate columns
//! (phase 1), finds zero survivors, and skips the remaining projected
//! columns (phase 2). Both meters use the same `bytes_read` accounting
//! (see `ScanMeter::bytes_read`), so the counts are directly comparable.

mod common;

use common::scan_cell_lazy_metered;
use polaris_columnar::{DataType, Field, RecordBatch, Schema, Value, WriterOptions};
use polaris_exec::write::write_data_file;
use polaris_exec::{cells_of_snapshot, plan_file_scan, Expr, ScanMorsel};
use polaris_lst::{Manifest, ManifestAction, SequenceId, TableSnapshot};
use polaris_obs::ScanMeter;
use polaris_store::{MemoryStore, Stamp};
use std::collections::BTreeSet;
use std::sync::Arc;

const COLS: usize = 8;
const GROUPS: usize = 8;
const GROUP_ROWS: usize = 64;

/// One file, 8 columns, 8 row groups of 64 rows. Every group's `c0`
/// spans [0, 10] so stats survive a `c0 = 5` probe, but only the last
/// group contains an actual 5.
fn setup() -> (MemoryStore, TableSnapshot) {
    let schema = Schema::new(
        (0..COLS)
            .map(|c| Field::new(format!("c{c}"), DataType::Int64))
            .collect(),
    );
    let rows: Vec<Vec<Value>> = (0..GROUPS * GROUP_ROWS)
        .map(|i| {
            let group = i / GROUP_ROWS;
            let c0 = if group == GROUPS - 1 && i % GROUP_ROWS == 0 {
                5 // the one real match, in the final group
            } else if i % 2 == 0 {
                0
            } else {
                10
            };
            let mut row = vec![Value::Int(c0)];
            row.extend((1..COLS).map(|c| Value::Int((i * c) as i64)));
            row
        })
        .collect();
    let batch = RecordBatch::from_rows(schema, &rows).unwrap();
    let store = MemoryStore::new();
    let opts = WriterOptions {
        row_group_rows: GROUP_ROWS,
        ..Default::default()
    };
    write_data_file(&store, "t/f0", &batch, opts, Stamp(1)).unwrap();
    let m = Manifest::from_actions(vec![ManifestAction::add_file(
        "t/f0".to_owned(),
        (GROUPS * GROUP_ROWS) as u64,
        0,
        0,
    )]);
    let snap = TableSnapshot::from_manifests([(SequenceId(1), &m)]).unwrap();
    (store, snap)
}

#[test]
fn late_materialization_reads_strictly_fewer_bytes_than_lazy() {
    let (store, snap) = setup();
    let cells = cells_of_snapshot(&snap);
    assert_eq!(cells.len(), 1);
    let cell = &cells[0];
    // Project 2 of 8 columns; the predicate column is one of them, so
    // both paths need exactly {c0, c1} and any byte gap comes from
    // late materialization alone, not column selection.
    let needed: BTreeSet<String> = ["c0", "c1"].map(str::to_owned).into();
    let pred = Expr::col("c0").eq(Expr::lit(5));

    let lazy_meter = ScanMeter::new();
    let lazy = scan_cell_lazy_metered(&store, cell, Some(&needed), Some(&pred), Some(&lazy_meter))
        .unwrap()
        .expect("one row matches");

    let morsel_meter = ScanMeter::new();
    let plan = plan_file_scan(
        &store,
        cell,
        0,
        Some(&needed),
        Some(&pred),
        Some(&morsel_meter),
    )
    .unwrap()
    .expect("file stats survive the probe");
    let morsel = ScanMorsel {
        plan: Arc::clone(&plan),
        group_lo: 0,
        group_hi: plan.footer.row_groups().len(),
    };
    let out = morsel.run(&store, None, Some(&morsel_meter)).unwrap();

    // Same survivors from both paths: the single c0 = 5 row.
    let morsel_rows: usize = out.batches.iter().map(|b| b.num_rows()).sum();
    assert_eq!(lazy.num_rows(), 1);
    assert_eq!(morsel_rows, 1);

    let lazy_bytes = ScanMeter::read(&lazy_meter.bytes_read);
    let morsel_bytes = ScanMeter::read(&morsel_meter.bytes_read);
    let skipped = ScanMeter::read(&morsel_meter.late_materialized_chunks_skipped);
    // All 8 groups stats-survive; 7 have zero matches, so the morsel
    // path skips their c1 chunks entirely.
    assert_eq!(skipped, (GROUPS - 1) as u64, "one c1 chunk per empty group");
    assert!(
        morsel_bytes < lazy_bytes,
        "late materialization must transfer strictly fewer bytes: \
         morsel={morsel_bytes} lazy={lazy_bytes}"
    );
}
