//! The eager scan: one GET of the whole blob, then prune, mask, filter,
//! project.
//!
//! This is the access pattern for readers of *every column of every row
//! group* — compaction, and UPDATE, which also takes the delete vector it
//! writes from this pass — where one request per file beats footer-first
//! ranged reads (3 + columns × groups requests).
//! Anything selective goes through [`plan_file_scan`](crate::plan_file_scan)
//! and [`ScanMorsel`](crate::ScanMorsel) instead.

use crate::morsel::{live_rows, retain_passing};
use crate::write::DeleteOutcome;
use crate::{Cell, ExecResult, Expr};
use polaris_columnar::{ColumnarFile, DeleteVector, RecordBatch};
use polaris_store::{BlobPath, ObjectStore};

/// Scan one cell.
///
/// Order of operations mirrors the BE (§3.2.1):
/// 1. statistics pruning against `predicate` — the manifest's ranges before
///    any storage request, then the footer's, then each row group's;
/// 2. delete-vector masking (merge-on-read);
/// 3. residual predicate filtering;
/// 4. projection.
///
/// Returns `None` when the file was pruned or every row was masked out;
/// else the rows, and the cell's delete vector merged with them — what
/// deleting exactly these rows writes, so an UPDATE reads its file once.
pub fn scan_cell(
    store: &dyn ObjectStore,
    cell: &Cell,
    projection: Option<&[&str]>,
    predicate: Option<&Expr>,
) -> ExecResult<Option<(RecordBatch, DeleteOutcome)>> {
    if predicate.is_some_and(|pred| !pred.may_match(&|name: &str| cell.range_stats(name))) {
        return Ok(None);
    }
    let file = ColumnarFile::parse(store.get(&BlobPath::new(cell.file.clone())?)?)?;
    let footer = file.footer();
    if predicate.is_some_and(|pred| !pred.may_match(&|name: &str| footer.column_stats(name).ok())) {
        return Ok(None);
    }
    // The stored deletes, joined by this scan's rows as it goes: a row
    // added here belongs to a group already masked, so every group is
    // masked by the stored deletes alone.
    let mut merged = match &cell.dv_path {
        Some(path) => DeleteVector::from_bytes(store.get(&BlobPath::new(path.clone())?)?)?,
        None => DeleteVector::new(),
    };
    let mut batches = Vec::new();
    let mut row_offset = 0usize;
    for (gi, group) in footer.row_groups().iter().enumerate() {
        let group_rows = group.rows as usize;
        let first_row = row_offset;
        row_offset += group_rows;
        let group_stats = |name: &str| {
            let idx = footer.schema().index_of(name).ok()?;
            Some(group.chunks[idx].stats.clone())
        };
        if predicate.is_some_and(|pred| !pred.may_match(&group_stats)) {
            continue;
        }
        let batch = file.read_row_group(gi)?;
        // Merge-on-read: mask deleted rows. DV indexes are file-relative.
        let mut keep = live_rows(Some(&merged), first_row, group_rows);
        if let Some(pred) = predicate {
            retain_passing(&mut keep, pred, &batch)?;
        }
        for row in keep.iter_set() {
            merged.delete_row(first_row + row);
        }
        match keep.count_set() {
            0 => {}
            n if n == group_rows => batches.push(batch),
            _ => batches.push(batch.filter(&keep)),
        }
    }
    if batches.is_empty() {
        return Ok(None);
    }
    let out = RecordBatch::concat(&batches)?;
    let deletes = DeleteOutcome {
        newly_deleted: out.num_rows() as u64,
        merged,
    };
    let out = match projection {
        Some(cols) => out.project(cols)?,
        None => out,
    };
    Ok(Some((out, deletes)))
}
