//! Reference scans the oracles compare the morsel path against. They were
//! the single-node read path before morsels and share no group loop with
//! it: [`scan_snapshot`] runs the eager `scan_cell` file by file, and
//! [`scan_cell_lazy_metered`] is the monolithic footer-first scan — footer,
//! delete vector, and every needed chunk of every surviving row group in
//! one call, with no late materialization.

// Shared between test crates, each using its own part.
#![allow(dead_code)]

use polaris_columnar::{Bitmap, DeleteVector, RecordBatch, Schema};
use polaris_exec::scan::scan_cell;
use polaris_exec::{Cell, ExecResult, Expr};
use polaris_lst::TableSnapshot;
use polaris_obs::ScanMeter;
use polaris_store::{BlobPath, ObjectStore};

/// Scan every live file of a snapshot into one batch.
///
/// `schema` is the table schema used to shape an empty result.
pub fn scan_snapshot(
    store: &dyn ObjectStore,
    snapshot: &TableSnapshot,
    schema: &Schema,
    projection: Option<&[&str]>,
    predicate: Option<&Expr>,
) -> ExecResult<RecordBatch> {
    let mut batches = Vec::new();
    for state in snapshot.files() {
        let cell = Cell::from_state(state);
        if let Some((batch, _)) = scan_cell(store, &cell, projection, predicate)? {
            batches.push(batch);
        }
    }
    if batches.is_empty() {
        let shape = match projection {
            Some(cols) => schema.project(cols)?,
            None => schema.clone(),
        };
        return Ok(RecordBatch::empty(shape));
    }
    Ok(RecordBatch::concat(&batches)?)
}

/// Scan one cell *lazily*: footer-first range reads, row-group pruning,
/// and chunk fetches for only the `needed` columns.
///
/// `needed = None` fetches every column. Returns the batch restricted to
/// the needed columns (in file-schema order), DV-masked and filtered; the
/// caller applies expression projections on top.
pub fn scan_cell_lazy(
    store: &dyn ObjectStore,
    cell: &Cell,
    needed: Option<&std::collections::BTreeSet<String>>,
    predicate: Option<&Expr>,
) -> ExecResult<Option<RecordBatch>> {
    scan_cell_lazy_metered(store, cell, needed, predicate, None)
}

/// [`scan_cell_lazy`] recording pruning decisions, row counts, and fetched
/// bytes into `meter`. Because this path only range-reads what it decodes,
/// the metered byte count is the statement's true transfer volume.
pub fn scan_cell_lazy_metered(
    store: &dyn ObjectStore,
    cell: &Cell,
    needed: Option<&std::collections::BTreeSet<String>>,
    predicate: Option<&Expr>,
    meter: Option<&ScanMeter>,
) -> ExecResult<Option<RecordBatch>> {
    use polaris_columnar::ColumnarFooter;

    let mut span = meter
        .map(|m| m.tracer.span("exec.scan"))
        .unwrap_or_default();
    span.attr("file", cell.file.as_str());
    // Metadata-only pruning first: zero storage requests.
    if let Some(pred) = predicate {
        let lookup = |name: &str| cell.range_stats(name);
        if !pred.may_match(&lookup) {
            if let Some(m) = meter {
                ScanMeter::bump(&m.files_pruned, 1);
            }
            span.attr("pruned", "manifest");
            return Ok(None);
        }
    }
    let path = BlobPath::new(cell.file.clone())?;
    let file_len = store.head(&path)?.size;
    if file_len < 12 {
        return Err(polaris_columnar::ColumnarError::corrupt("file too short").into());
    }
    // Tail probe -> footer length -> footer fetch (two range reads).
    let tail8 = store.get_range(&path, file_len - ColumnarFooter::TAIL_PROBE..file_len)?;
    let footer_len = ColumnarFooter::footer_len_from_tail(&tail8)?;
    let tail_start = file_len
        .checked_sub(footer_len + 8)
        .ok_or_else(|| polaris_columnar::ColumnarError::corrupt("footer length out of range"))?;
    let tail = store.get_range(&path, tail_start..file_len)?;
    if let Some(m) = meter {
        ScanMeter::bump(&m.bytes_read, (tail8.len() + tail.len()) as u64);
    }
    let footer = ColumnarFooter::parse_tail(tail, file_len)?;

    // File-level stats pruning from the footer.
    if let Some(pred) = predicate {
        if !pred.may_match(&|name: &str| footer.column_stats(name).ok()) {
            if let Some(m) = meter {
                ScanMeter::bump(&m.files_pruned, 1);
            }
            span.attr("pruned", "footer");
            return Ok(None);
        }
    }
    if let Some(m) = meter {
        ScanMeter::bump(&m.files_scanned, 1);
    }

    // Resolve the column subset to fetch.
    let schema = footer.schema().clone();
    let fetch_cols: Vec<usize> = match needed {
        None => (0..schema.len()).collect(),
        Some(set) => {
            let mut cols: Vec<usize> = schema
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| set.contains(&f.name))
                .map(|(i, _)| i)
                .collect();
            if cols.is_empty() {
                // COUNT(*)-style scans still need row counts: fetch the
                // cheapest (first) column.
                cols.push(0);
            }
            cols
        }
    };
    let sub_fields: Vec<polaris_columnar::Field> = fetch_cols
        .iter()
        .map(|&i| schema.fields()[i].clone())
        .collect();
    let sub_schema = Schema::new(sub_fields);

    let dv = match &cell.dv_path {
        Some(p) => {
            let raw = store.get(&BlobPath::new(p.clone())?)?;
            if let Some(m) = meter {
                ScanMeter::bump(&m.bytes_read, raw.len() as u64);
            }
            Some(DeleteVector::from_bytes(raw)?)
        }
        None => None,
    };

    let mut batches = Vec::new();
    let mut row_offset = 0usize;
    for group in footer.row_groups() {
        let group_rows = group.rows as usize;
        if let Some(pred) = predicate {
            let lookup = |name: &str| {
                schema
                    .index_of(name)
                    .ok()
                    .map(|idx| group.chunks[idx].stats.clone())
            };
            if !pred.may_match(&lookup) {
                if let Some(m) = meter {
                    ScanMeter::bump(&m.row_groups_pruned, 1);
                }
                row_offset += group_rows;
                continue;
            }
        }
        if let Some(m) = meter {
            ScanMeter::bump(&m.row_groups_scanned, 1);
            ScanMeter::bump(&m.rows_in, group_rows as u64);
        }
        // Fetch and decode only the needed chunks of this group.
        let mut columns = Vec::with_capacity(fetch_cols.len());
        for &ci in &fetch_cols {
            let chunk = &group.chunks[ci];
            let payload = store.get_range(&path, chunk.offset..chunk.offset + chunk.length)?;
            if let Some(m) = meter {
                ScanMeter::bump(&m.bytes_read, payload.len() as u64);
            }
            columns.push(footer.decode_chunk_payload(
                &schema.fields()[ci],
                chunk,
                payload,
                group_rows,
            )?);
        }
        let batch = RecordBatch::new(sub_schema.clone(), columns)?;
        let mut keep = Bitmap::all_set(group_rows);
        if let Some(dv) = &dv {
            for i in 0..group_rows {
                if dv.is_deleted(row_offset + i) {
                    keep.clear(i);
                }
            }
        }
        let mut batch = if keep.count_set() == group_rows {
            batch
        } else {
            batch.filter(&keep)
        };
        if let Some(pred) = predicate {
            let mask = pred.eval_predicate(&batch)?;
            if mask.count_set() < batch.num_rows() {
                batch = batch.filter(&mask);
            }
        }
        if batch.num_rows() > 0 {
            batches.push(batch);
        }
        row_offset += group_rows;
    }
    if batches.is_empty() {
        span.attr("rows", 0usize);
        return Ok(None);
    }
    let out = RecordBatch::concat(&batches)?;
    if let Some(m) = meter {
        ScanMeter::bump(&m.rows_out, out.num_rows() as u64);
    }
    span.attr("rows", out.num_rows());
    Ok(Some(out))
}
