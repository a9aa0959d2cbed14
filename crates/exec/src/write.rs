//! The BE write path: immutable data files and delete vectors.
//!
//! Inserts create new data files; deletes create (merged) delete vectors;
//! updates are a delete followed by an insert (§4.1.1), both taken from one
//! eager [`scan_cell`](crate::scan::scan_cell). Nothing here
//! mutates an existing file — the LST invariant that makes aborted work
//! free to discard.

use crate::{plan_file_scan, Cell, ExecResult, Expr};
use polaris_columnar::{ColumnarWriter, DeleteVector, RecordBatch, WriterOptions};
use polaris_store::{BlobPath, ObjectStore, Stamp};

/// Result of writing one data file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrittenFile {
    /// Blob path.
    pub path: String,
    /// Rows written.
    pub rows: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
}

/// Encode `batch` and store it as an immutable data file at `path`.
pub fn write_data_file(
    store: &dyn ObjectStore,
    path: &str,
    batch: &RecordBatch,
    options: WriterOptions,
    stamp: Stamp,
) -> ExecResult<WrittenFile> {
    let data = ColumnarWriter::encode_file(batch, options)?;
    let bytes = data.len() as u64;
    store.put(&BlobPath::new(path)?, data, stamp)?;
    Ok(WrittenFile {
        path: path.to_owned(),
        rows: batch.num_rows() as u64,
        bytes,
    })
}

/// Outcome of evaluating a delete predicate against one cell — by
/// [`delete_matching`], or by the eager [`scan_cell`](crate::scan::scan_cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeleteOutcome {
    /// Merged delete vector (previous deletes ∪ new matches).
    pub merged: DeleteVector,
    /// Rows newly deleted by this operation.
    pub newly_deleted: u64,
}

/// Compute the live rows of `cell` matching `predicate` and merge them
/// into the cell's existing delete vector.
///
/// Returns `None` when no row matches — the caller then leaves the file
/// untouched (and records no conflict against it, which matters for
/// file-granularity conflict detection, §4.4.1).
pub fn delete_matching(
    store: &dyn ObjectStore,
    cell: &Cell,
    predicate: &Expr,
) -> ExecResult<Option<DeleteOutcome>> {
    // A delete reads like a scan of the predicate's columns: same pruning,
    // same footer-first ranged reads, same mask-then-evaluate group loop.
    let mut needed = std::collections::BTreeSet::new();
    predicate.referenced_columns(&mut needed);
    let Some(plan) = plan_file_scan(store, cell, 0, Some(&needed), Some(predicate), None)? else {
        return Ok(None);
    };
    let path = BlobPath::new(plan.path.clone())?;
    let mut merged = plan.dv.clone().unwrap_or_default();
    let mut newly_deleted = 0u64;
    for (g, base) in plan.group_row_offsets.iter().enumerate() {
        // Survivors are live, so each one is a new delete.
        if let Some((matching, _)) = plan.survivors(g, &path, store, None)? {
            for row in matching.iter_set() {
                merged.delete_row(base + row);
                newly_deleted += 1;
            }
        }
    }
    Ok((newly_deleted > 0).then_some(DeleteOutcome {
        merged,
        newly_deleted,
    }))
}

/// Store a delete-vector file.
pub fn write_delete_vector(
    store: &dyn ObjectStore,
    path: &str,
    dv: &DeleteVector,
    stamp: Stamp,
) -> ExecResult<()> {
    store.put(&BlobPath::new(path)?, dv.to_bytes(), stamp)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_columnar::{DataType, Field, Schema, Value};
    use polaris_store::MemoryStore;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("qty", DataType::Int64),
        ])
    }

    fn batch(n: i64) -> RecordBatch {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect();
        RecordBatch::from_rows(schema(), &rows).unwrap()
    }

    fn cell(path: &str, rows: u64, dv: Option<&str>) -> Cell {
        Cell {
            file: path.into(),
            rows,
            bytes: 0,
            distribution: 0,
            dv_path: dv.map(str::to_owned),
            col_ranges: Vec::new(),
        }
    }

    #[test]
    fn write_then_read_back() {
        let store = MemoryStore::new();
        let written = write_data_file(
            &store,
            "t/f",
            &batch(100),
            WriterOptions::default(),
            Stamp(1),
        )
        .unwrap();
        assert_eq!(written.rows, 100);
        assert!(written.bytes > 0);
        let (out, _) = crate::scan::scan_cell(&store, &cell("t/f", 100, None), None, None)
            .unwrap()
            .unwrap();
        assert_eq!(out.num_rows(), 100);
    }

    #[test]
    fn delete_matching_builds_dv() {
        let store = MemoryStore::new();
        write_data_file(
            &store,
            "t/f",
            &batch(10),
            WriterOptions::default(),
            Stamp(1),
        )
        .unwrap();
        let pred = Expr::col("id").lt(Expr::lit(3i64));
        let outcome = delete_matching(&store, &cell("t/f", 10, None), &pred)
            .unwrap()
            .unwrap();
        assert_eq!(outcome.newly_deleted, 3);
        assert_eq!(outcome.merged.cardinality(), 3);
        assert!(outcome.merged.is_deleted(0) && outcome.merged.is_deleted(2));
        assert!(!outcome.merged.is_deleted(3));
    }

    #[test]
    fn delete_does_not_evaluate_deleted_rows() {
        // Row 0's qty overflows `qty + 1`; it is deleted, so the predicate
        // must never see it — as no SELECT or UPDATE would.
        let store = MemoryStore::new();
        let rows = [[0, i64::MAX], [1, 5], [2, 7]].map(|r| r.map(Value::Int).to_vec());
        let batch = RecordBatch::from_rows(schema(), &rows).unwrap();
        write_data_file(&store, "t/f", &batch, WriterOptions::default(), Stamp(1)).unwrap();
        write_delete_vector(&store, "t/f.dv", &DeleteVector::from_rows([0]), Stamp(1)).unwrap();
        let pred = Expr::col("qty")
            .binary(crate::BinOp::Add, Expr::lit(1i64))
            .gt(Expr::lit(6i64));
        let outcome = delete_matching(&store, &cell("t/f", 3, Some("t/f.dv")), &pred)
            .unwrap()
            .unwrap();
        assert_eq!(outcome.newly_deleted, 1);
        assert_eq!(outcome.merged, DeleteVector::from_rows([0, 2]));
    }

    #[test]
    fn delete_merges_with_existing_dv() {
        let store = MemoryStore::new();
        write_data_file(
            &store,
            "t/f",
            &batch(10),
            WriterOptions::default(),
            Stamp(1),
        )
        .unwrap();
        let old = DeleteVector::from_rows([0, 1]);
        write_delete_vector(&store, "t/f.dv", &old, Stamp(1)).unwrap();
        // delete id < 4: ids 0,1 already gone -> only 2,3 newly deleted
        let pred = Expr::col("id").lt(Expr::lit(4i64));
        let outcome = delete_matching(&store, &cell("t/f", 10, Some("t/f.dv")), &pred)
            .unwrap()
            .unwrap();
        assert_eq!(outcome.newly_deleted, 2);
        assert_eq!(outcome.merged.cardinality(), 4);
    }

    #[test]
    fn delete_with_no_matches_returns_none() {
        let store = MemoryStore::new();
        write_data_file(
            &store,
            "t/f",
            &batch(10),
            WriterOptions::default(),
            Stamp(1),
        )
        .unwrap();
        // pruned by stats
        let pred = Expr::col("id").gt(Expr::lit(1000i64));
        assert!(delete_matching(&store, &cell("t/f", 10, None), &pred)
            .unwrap()
            .is_none());
        // everything already deleted
        let all = DeleteVector::from_rows(0..10);
        write_delete_vector(&store, "t/f.dv", &all, Stamp(1)).unwrap();
        let pred = Expr::col("id").lt(Expr::lit(5i64));
        assert!(
            delete_matching(&store, &cell("t/f", 10, Some("t/f.dv")), &pred)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn update_reads_live_rows_and_their_delete_vector_at_once() {
        let store = MemoryStore::new();
        write_data_file(
            &store,
            "t/f",
            &batch(10),
            WriterOptions::default(),
            Stamp(1),
        )
        .unwrap();
        let dv = DeleteVector::from_rows([5]);
        write_delete_vector(&store, "t/f.dv", &dv, Stamp(1)).unwrap();
        let pred = Expr::col("id").gt_eq(Expr::lit(4i64));
        let cell = cell("t/f", 10, Some("t/f.dv"));
        let (live, outcome) = crate::scan::scan_cell(&store, &cell, None, Some(&pred))
            .unwrap()
            .unwrap();
        // ids 4..10 minus deleted 5 = 5 rows
        let ids: Vec<i64> = (0..live.num_rows())
            .map(|i| live.column(0).value(i).as_int().unwrap())
            .collect();
        assert_eq!(ids, [4, 6, 7, 8, 9]);
        // The same rows a ranged delete of the predicate finds.
        assert_eq!(
            Some(outcome),
            delete_matching(&store, &cell, &pred).unwrap()
        );
    }
}
