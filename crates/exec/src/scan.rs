//! The eager scan: one GET of the whole blob, then prune, mask, filter,
//! project.
//!
//! This is the access pattern for readers of *every column of every row
//! group* — compaction and the read half of UPDATE — where one request per
//! file beats footer-first ranged reads (3 + columns × groups requests).
//! Anything selective goes through [`plan_file_scan`](crate::plan_file_scan)
//! and [`ScanMorsel`](crate::ScanMorsel) instead.

use crate::{Cell, ExecResult, Expr};
use polaris_columnar::{Bitmap, ColumnarFile, DeleteVector, RecordBatch};
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
/// Returns `None` when the file was pruned or every row was masked out.
pub fn scan_cell(
    store: &dyn ObjectStore,
    cell: &Cell,
    projection: Option<&[&str]>,
    predicate: Option<&Expr>,
) -> ExecResult<Option<RecordBatch>> {
    if predicate.is_some_and(|pred| !pred.may_match(&|name: &str| cell.range_stats(name))) {
        return Ok(None);
    }
    let file = ColumnarFile::parse(store.get(&BlobPath::new(cell.file.clone())?)?)?;
    if predicate.is_some_and(|pred| !pred.may_match(&|name: &str| file.column_stats(name).ok())) {
        return Ok(None);
    }
    let dv = match &cell.dv_path {
        Some(path) => Some(DeleteVector::from_bytes(
            store.get(&BlobPath::new(path.clone())?)?,
        )?),
        None => None,
    };
    let mut batches = Vec::new();
    let mut row_offset = 0usize;
    for (gi, group) in file.row_groups().iter().enumerate() {
        let group_rows = group.rows as usize;
        let first_row = row_offset;
        row_offset += group_rows;
        let group_stats = |name: &str| {
            let idx = file.schema().index_of(name).ok()?;
            Some(group.chunks[idx].stats.clone())
        };
        if predicate.is_some_and(|pred| !pred.may_match(&group_stats)) {
            continue;
        }
        let mut batch = file.read_row_group(gi)?;
        // Merge-on-read: mask deleted rows. DV indexes are file-relative.
        if let Some(dv) = &dv {
            let mut keep = Bitmap::all_set(group_rows);
            for i in (0..group_rows).filter(|i| dv.is_deleted(first_row + i)) {
                keep.clear(i);
            }
            if keep.count_set() < group_rows {
                batch = batch.filter(&keep);
            }
        }
        if let Some(pred) = predicate {
            let mask = pred.eval_predicate(&batch)?;
            if mask.count_set() < batch.num_rows() {
                batch = batch.filter(&mask);
            }
        }
        if batch.num_rows() > 0 {
            batches.push(batch);
        }
    }
    if batches.is_empty() {
        return Ok(None);
    }
    let out = RecordBatch::concat(&batches)?;
    Ok(Some(match projection {
        Some(cols) => out.project(cols)?,
        None => out,
    }))
}
