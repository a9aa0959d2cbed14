//! Morsel-driven scan fragments: row-group-aligned units with late
//! materialization.
//!
//! A ranged read of a data file is two phases the DCP can schedule
//! independently, and every ranged reader — SELECT's morsels, DELETE's
//! [`delete_matching`](crate::write::delete_matching) — goes through them:
//!
//! 1. **Planning** ([`plan_file_scan`]) — one small task per file, and the
//!    one place a file is opened: manifest pruning, footer fetch,
//!    file-level stats pruning, delete vector fetch. Produces an immutable
//!    [`FileScanPlan`].
//! 2. **Execution** ([`ScanMorsel::run`]) — a morsel covers a contiguous
//!    range of row groups of one plan. Morsels split at group boundaries
//!    ([`ScanMorsel::split`]), so the work-stealing scheduler can spread
//!    one large file across every Read lane. Per group it asks the plan
//!    for the surviving rows ([`FileScanPlan::survivors`]) and then
//!    materializes them.
//!
//! **Late materialization**: each group fetches only the *predicate*
//! columns first, masks the deleted rows, evaluates the predicate over
//! what is left, and fetches the remaining projected columns only when
//! rows survive.
//! A group whose rows are all filtered out never transfers its
//! non-predicate chunks — counted in
//! `ScanMeter::late_materialized_chunks_skipped`.
//!
//! Every chunk range is fetched exactly once, by the morsel that decodes
//! it, with one `get_range` on the lane running the morsel. Repeated reads
//! of a hot file are the store cache's business (`CachingStore`), not the
//! scan's.
//!
//! This crate stays DCP-free: `polaris-core` adapts these types to the
//! scheduler's `Morsel` trait.

use crate::{Cell, ExecResult, Expr};
use polaris_columnar::{
    Bitmap, ColumnVector, ColumnarError, ColumnarFooter, DeleteVector, RecordBatch, Schema,
};
use polaris_obs::ScanMeter;
use polaris_store::{BlobPath, ObjectStore};
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::Arc;

/// Immutable per-file scan state produced by [`plan_file_scan`] and
/// shared (via `Arc`) by every morsel of the file.
#[derive(Debug)]
pub struct FileScanPlan {
    /// Ordinal of the file in snapshot order — the sort key that restores
    /// deterministic output order after out-of-order morsel completion.
    pub file_index: usize,
    /// Blob path of the data file.
    pub path: String,
    /// Parsed footer (schema + row-group directory).
    pub footer: ColumnarFooter,
    /// Delete vector, already fetched (file-relative row indexes).
    pub dv: Option<DeleteVector>,
    /// Residual predicate pushed into the scan.
    pub predicate: Option<Expr>,
    /// Columns to materialize: file-schema indexes, ascending.
    pub fetch_cols: Vec<usize>,
    /// Phase-1 columns (subset of `fetch_cols`): the predicate's inputs,
    /// or all of `fetch_cols` when there is no predicate to defer for.
    pub pred_cols: Vec<usize>,
    /// Phase-2 columns (`fetch_cols` minus `pred_cols`): fetched only for
    /// groups with surviving rows.
    pub rest_cols: Vec<usize>,
    /// Schema of `fetch_cols`, in file order — the shape morsels emit.
    pub sub_schema: Schema,
    /// Schema of `pred_cols`, the phase-1 evaluation batch shape.
    pub pred_schema: Schema,
    /// First file-relative row index of each row group.
    pub group_row_offsets: Vec<usize>,
}

impl FileScanPlan {
    /// One morsel spanning every row group of the file — the scheduler's
    /// adaptive splitting cuts it down to size.
    pub fn whole_file_morsel(self: &Arc<Self>) -> ScanMorsel {
        ScanMorsel {
            plan: Arc::clone(self),
            group_lo: 0,
            group_hi: self.footer.row_groups().len(),
        }
    }

    /// Does row group `g` survive chunk-stats pruning under the predicate?
    fn group_may_match(&self, g: usize) -> bool {
        let Some(pred) = &self.predicate else {
            return true;
        };
        let group = &self.footer.row_groups()[g];
        let lookup = |name: &str| {
            self.footer
                .schema()
                .index_of(name)
                .ok()
                .map(|idx| group.chunks[idx].stats.clone())
        };
        pred.may_match(&lookup)
    }

    /// Fetch (one `get_range`) and decode column `c` of row group `g`.
    fn read_chunk(
        &self,
        g: usize,
        c: usize,
        path: &BlobPath,
        store: &dyn ObjectStore,
        meter: Option<&ScanMeter>,
    ) -> ExecResult<ColumnVector> {
        let group = &self.footer.row_groups()[g];
        let chunk = &group.chunks[c];
        let payload = store.get_range(path, chunk.offset..chunk.offset + chunk.length)?;
        if let Some(m) = meter {
            ScanMeter::bump(&m.bytes_read, payload.len() as u64);
        }
        let field = &self.footer.schema().fields()[c];
        Ok(self
            .footer
            .decode_chunk_payload(field, chunk, payload, group.rows as usize)?)
    }

    /// The rows of group `g` a reader sees: not deleted, and passing the
    /// predicate. `None` when chunk statistics rule the group out; else
    /// the surviving rows (group-relative) and the decoded phase-1 batch
    /// (`pred_cols`, every row), for the caller to materialize from.
    ///
    /// `path` is this plan's file, parsed once by the caller.
    pub(crate) fn survivors(
        &self,
        g: usize,
        path: &BlobPath,
        store: &dyn ObjectStore,
        meter: Option<&ScanMeter>,
    ) -> ExecResult<Option<(Bitmap, RecordBatch)>> {
        let rows = self.footer.row_groups()[g].rows as usize;
        if !self.group_may_match(g) {
            if let Some(m) = meter {
                ScanMeter::bump(&m.row_groups_pruned, 1);
            }
            return Ok(None);
        }
        if let Some(m) = meter {
            ScanMeter::bump(&m.row_groups_scanned, 1);
            ScanMeter::bump(&m.rows_in, rows as u64);
        }
        let phase1 = RecordBatch::new(
            self.pred_schema.clone(),
            self.pred_cols
                .iter()
                .map(|&c| self.read_chunk(g, c, path, store, meter))
                .collect::<ExecResult<_>>()?,
        )?;
        let mut keep = live_rows(self.dv.as_ref(), self.group_row_offsets[g], rows);
        if let Some(pred) = &self.predicate {
            retain_passing(&mut keep, pred, &phase1)?;
        }
        Ok(Some((keep, phase1)))
    }
}

/// The rows `base..base + rows` of a file that `dv` leaves live, as a
/// group-relative bitmap.
pub(crate) fn live_rows(dv: Option<&DeleteVector>, base: usize, rows: usize) -> Bitmap {
    let mut keep = Bitmap::all_set(rows);
    if let Some(dv) = dv {
        for i in (0..rows).filter(|i| dv.is_deleted(base + i)) {
            keep.clear(i);
        }
    }
    keep
}

/// Narrow `keep`, the live rows of `batch`, to those `pred` passes.
/// Masks first: a deleted row is not a row, and must not raise a
/// comparison or overflow error.
pub(crate) fn retain_passing(
    keep: &mut Bitmap,
    pred: &Expr,
    batch: &RecordBatch,
) -> ExecResult<()> {
    if keep.count_set() == batch.num_rows() {
        keep.intersect_with(&pred.eval_predicate(batch)?);
        return Ok(());
    }
    let passed = pred.eval_predicate(&batch.filter(keep))?;
    let mut survivor = 0;
    for row in 0..batch.num_rows() {
        if keep.get(row) {
            if !passed.get(survivor) {
                keep.clear(row);
            }
            survivor += 1;
        }
    }
    Ok(())
}

/// Plan one file's scan: manifest pruning, footer fetch (tail-probe +
/// tail range reads), file-level stats pruning, and delete-vector fetch.
/// Returns `None` when the file is pruned outright.
///
/// `needed = None` materializes every column (`SELECT *`).
pub fn plan_file_scan(
    store: &dyn ObjectStore,
    cell: &Cell,
    file_index: usize,
    needed: Option<&BTreeSet<String>>,
    predicate: Option<&Expr>,
    meter: Option<&ScanMeter>,
) -> ExecResult<Option<Arc<FileScanPlan>>> {
    // Metadata-only pruning first: zero storage requests.
    if let Some(pred) = predicate {
        let lookup = |name: &str| cell.range_stats(name);
        if !pred.may_match(&lookup) {
            if let Some(m) = meter {
                ScanMeter::bump(&m.files_pruned, 1);
            }
            return Ok(None);
        }
    }
    let path = BlobPath::new(cell.file.clone())?;
    let file_len = store.head(&path)?.size;
    if file_len < 12 {
        return Err(ColumnarError::corrupt("file too short").into());
    }
    let tail8 = store.get_range(&path, file_len - ColumnarFooter::TAIL_PROBE..file_len)?;
    let footer_len = ColumnarFooter::footer_len_from_tail(&tail8)?;
    let tail_start = file_len
        .checked_sub(footer_len + 8)
        .ok_or_else(|| ColumnarError::corrupt("footer length out of range"))?;
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
            return Ok(None);
        }
    }
    if let Some(m) = meter {
        ScanMeter::bump(&m.files_scanned, 1);
    }

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
    // Phase split for late materialization. With no predicate every
    // column is phase-1 (nothing justifies deferral); with a predicate
    // that references no fetched column (rare: literal-only), keep one
    // column in phase 1 so the evaluation batch has a row count.
    let (pred_cols, rest_cols) = match predicate {
        None => (fetch_cols.clone(), Vec::new()),
        Some(pred) => {
            let mut refs = BTreeSet::new();
            pred.referenced_columns(&mut refs);
            let mut p: Vec<usize> = fetch_cols
                .iter()
                .copied()
                .filter(|&i| refs.contains(&schema.fields()[i].name))
                .collect();
            if p.is_empty() {
                p.push(fetch_cols[0]);
            }
            let r: Vec<usize> = fetch_cols
                .iter()
                .copied()
                .filter(|i| !p.contains(i))
                .collect();
            (p, r)
        }
    };
    let sub_schema = Schema::new(
        fetch_cols
            .iter()
            .map(|&i| schema.fields()[i].clone())
            .collect(),
    );
    let pred_schema = Schema::new(
        pred_cols
            .iter()
            .map(|&i| schema.fields()[i].clone())
            .collect(),
    );
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
    let mut group_row_offsets = Vec::with_capacity(footer.row_groups().len());
    let mut off = 0usize;
    for g in footer.row_groups() {
        group_row_offsets.push(off);
        off += g.rows as usize;
    }
    Ok(Some(Arc::new(FileScanPlan {
        file_index,
        path: cell.file.clone(),
        footer,
        dv,
        predicate: predicate.cloned(),
        fetch_cols,
        pred_cols,
        rest_cols,
        sub_schema,
        pred_schema,
        group_row_offsets,
    })))
}

/// Batches produced by one morsel, tagged with its position for
/// deterministic reassembly.
#[derive(Debug)]
pub struct MorselScanOutput {
    /// Snapshot-order file ordinal (from the plan).
    pub file_index: usize,
    /// First row group this morsel covered.
    pub group_lo: usize,
    /// One DV-masked, predicate-filtered batch per surviving row group,
    /// restricted to the plan's `fetch_cols` (file order). Expression
    /// projections are applied by the caller.
    pub batches: Vec<RecordBatch>,
}

/// A contiguous row-group range of one file: the unit the work-stealing
/// scheduler moves between lanes.
#[derive(Debug, Clone)]
pub struct ScanMorsel {
    /// Shared per-file state.
    pub plan: Arc<FileScanPlan>,
    /// First row group (inclusive).
    pub group_lo: usize,
    /// Last row group (exclusive).
    pub group_hi: usize,
}

impl ScanMorsel {
    /// Scheduling weight: the chunk bytes a full (no pruning, no
    /// late-materialization savings) read of this morsel would transfer.
    pub fn weight(&self) -> u64 {
        (self.group_lo..self.group_hi)
            .map(|g| self.plan.footer.group_chunk_bytes(g, &self.plan.fetch_cols))
            .sum::<u64>()
            .max(1)
    }

    /// Split at the group boundary nearest to half the weight. `None`
    /// when the morsel is a single row group (already atomic).
    pub fn split(&self) -> Option<(ScanMorsel, ScanMorsel)> {
        if self.group_hi - self.group_lo < 2 {
            return None;
        }
        let half = self.weight() / 2;
        let mut acc = 0u64;
        let mut cut = self.group_lo + 1;
        for g in self.group_lo..self.group_hi - 1 {
            acc += self.plan.footer.group_chunk_bytes(g, &self.plan.fetch_cols);
            cut = g + 1;
            if acc >= half {
                break;
            }
        }
        let mut a = self.clone();
        let mut b = self.clone();
        a.group_hi = cut;
        b.group_lo = cut;
        Some((a, b))
    }

    /// Execute the morsel: per group, find the surviving rows (phase-1
    /// chunks), then fetch the phase-2 chunks and materialize — only when
    /// rows survive.
    ///
    /// `_unused` can only be `None`: it keeps the benchmark's
    /// `run(store, None, meter)` call compiling and goes with the next
    /// change to the benchmark.
    pub fn run(
        &self,
        store: &dyn ObjectStore,
        _unused: Option<&Infallible>,
        meter: Option<&ScanMeter>,
    ) -> ExecResult<MorselScanOutput> {
        let plan = &*self.plan;
        let path = BlobPath::new(plan.path.clone())?;
        let mut batches = Vec::new();
        for g in self.group_lo..self.group_hi {
            let Some((keep, phase1)) = plan.survivors(g, &path, store, meter)? else {
                continue;
            };
            if keep.count_set() == 0 {
                // Late materialization pays off: no surviving row, so the
                // phase-2 chunks of this group are never transferred.
                if let Some(m) = meter {
                    ScanMeter::bump(
                        &m.late_materialized_chunks_skipped,
                        plan.rest_cols.len() as u64,
                    );
                }
                continue;
            }
            // Phase 2: the remaining projected columns, fetched now that
            // rows survive, in file order between the phase-1 columns
            // (`pred_cols` is an ascending subset of `fetch_cols`).
            let batch = if plan.rest_cols.is_empty() {
                phase1
            } else {
                let mut decoded = phase1.columns().iter();
                let columns = plan
                    .fetch_cols
                    .iter()
                    .map(|c| match plan.rest_cols.contains(c) {
                        true => plan.read_chunk(g, *c, &path, store, meter),
                        false => Ok(decoded.next().expect("one per phase-1 column").clone()),
                    })
                    .collect::<ExecResult<_>>()?;
                RecordBatch::new(plan.sub_schema.clone(), columns)?
            };
            let batch = if keep.count_set() == batch.num_rows() {
                batch
            } else {
                batch.filter(&keep)
            };
            if let Some(m) = meter {
                ScanMeter::bump(&m.rows_out, batch.num_rows() as u64);
            }
            batches.push(batch);
        }
        Ok(MorselScanOutput {
            file_index: plan.file_index,
            group_lo: self.group_lo,
            batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells_of_snapshot;
    use crate::write::write_data_file;
    use polaris_columnar::{DataType, Field, Value, WriterOptions};
    use polaris_lst::{Manifest, ManifestAction, SequenceId, TableSnapshot};
    use polaris_store::{MemoryStore, Stamp};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("score", DataType::Float64),
        ])
    }

    fn batch(range: std::ops::Range<i64>) -> RecordBatch {
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
    fn single_group_morsel_is_atomic() {
        let (store, snap) = setup();
        let cell = cells_of_snapshot(&snap).remove(0);
        let plan = plan_file_scan(&store, &cell, 0, None, None, None)
            .unwrap()
            .unwrap();
        let whole = plan.whole_file_morsel();
        let (a, _) = whole.split().unwrap();
        let atom = ScanMorsel {
            plan: Arc::clone(&a.plan),
            group_lo: 0,
            group_hi: 1,
        };
        assert!(atom.split().is_none());
        assert!(atom.weight() > 0);
    }

    #[test]
    fn late_materialization_skips_on_dv_masked_group() {
        // No predicate pruning help: a DV deleting an entire row group
        // must still skip that group's phase-2 chunks.
        let store = MemoryStore::new();
        let opts = WriterOptions {
            row_group_rows: 4,
            ..Default::default()
        };
        write_data_file(&store, "t/g", &batch(0..8), opts, Stamp(1)).unwrap();
        let dv = DeleteVector::from_rows([0, 1, 2, 3]);
        store
            .put(&BlobPath::new("t/g.dv").unwrap(), dv.to_bytes(), Stamp(1))
            .unwrap();
        let cell = Cell {
            file: "t/g".into(),
            rows: 8,
            bytes: 0,
            distribution: 0,
            dv_path: Some("t/g.dv".into()),
            col_ranges: Vec::new(),
        };
        let needed: BTreeSet<String> = ["id".to_owned(), "name".to_owned()].into();
        // Predicate that passes stats everywhere, so only the DV mask
        // can empty a group.
        let pred = Expr::col("id").gt_eq(Expr::lit(0i64));
        let meter = ScanMeter::default();
        let plan = plan_file_scan(&store, &cell, 0, Some(&needed), Some(&pred), Some(&meter))
            .unwrap()
            .unwrap();
        let out = plan
            .whole_file_morsel()
            .run(&store, None, Some(&meter))
            .unwrap();
        let got = concat_morsels(vec![out]);
        assert_eq!(got.num_rows(), 4); // rows 4..8 survive
        assert!(
            ScanMeter::read(&meter.late_materialized_chunks_skipped) >= 1,
            "fully-deleted group must skip its phase-2 chunk"
        );
    }

    #[test]
    fn plan_prunes_on_manifest_and_footer() {
        let (store, snap) = setup();
        let mut cell = cells_of_snapshot(&snap).remove(0);
        let meter = ScanMeter::default();
        // Footer-level prune: predicate outside the data's range.
        let pred = Expr::col("id").gt(Expr::lit(1000i64));
        let plan = plan_file_scan(&store, &cell, 0, None, Some(&pred), Some(&meter)).unwrap();
        assert!(plan.is_none());
        assert_eq!(ScanMeter::read(&meter.files_pruned), 1);
        // Manifest-level prune: zero storage requests, no byte growth.
        cell.col_ranges = vec![polaris_lst::ColRange {
            column: "id".to_owned(),
            min: polaris_lst::RangeVal::Int(0),
            max: polaris_lst::RangeVal::Int(15),
        }];
        let bytes_before = ScanMeter::read(&meter.bytes_read);
        let plan = plan_file_scan(&store, &cell, 0, None, Some(&pred), Some(&meter)).unwrap();
        assert!(plan.is_none());
        assert_eq!(ScanMeter::read(&meter.files_pruned), 2);
        assert_eq!(ScanMeter::read(&meter.bytes_read), bytes_before);
    }
}
