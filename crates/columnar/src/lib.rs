//! # polaris-columnar
//!
//! Immutable columnar file format — the Parquet stand-in for the Polaris
//! reproduction.
//!
//! The paper stores table data in immutable Parquet files (§2). Everything
//! the transaction layer needs from the format is:
//!
//! * **immutability** — files are written once; updates/deletes never touch
//!   them, they add *delete vectors* instead (merge-on-read, §2.1);
//! * **columnar layout** with per-column min/max/null statistics so scans
//!   can prune row groups against predicates;
//! * **self-description** — a footer describing schema and row groups so a
//!   file is readable in isolation;
//! * **row-group granularity** so a large file can be split into multiple
//!   data *cells* for parallel processing (§2.3).
//!
//! This crate provides all of that:
//!
//! * [`Schema`] / [`Field`] / [`DataType`] — logical types.
//! * [`Value`] — dynamically typed scalar used for literals and statistics.
//! * [`ColumnVector`] / [`RecordBatch`] — the in-memory vectorized form
//!   ([`StrVec`] holds a string column's values in one buffer).
//! * [`ColumnarWriter`] / [`ColumnarFile`] / [`ColumnarFooter`] — file
//!   encode/decode with plain, run-length, delta-varint, dictionary and
//!   bit-packed encodings.
//! * [`codec`] — the one binary encoding of every blob the engine writes
//!   for itself, data files included (`polaris-lst` re-exports it).
//! * [`Bitmap`] / [`DeleteVector`] — the deletion-vector file format.
//! * [`hash`] — the seeded hasher of every table keyed by column values.
//! * [`zorder`] — Z-order key interleaving used for range partitioning.

mod bitmap;
pub mod codec;
mod delete_vector;
mod encoding;
mod error;
mod file;
pub mod hash;
mod schema;
mod stats;
mod strvec;
mod value;
mod vector;
pub mod zorder;

pub use bitmap::Bitmap;
pub use delete_vector::DeleteVector;
pub use error::{ColumnarError, ColumnarResult};
pub use file::{
    ColumnChunkMeta, ColumnarFile, ColumnarFooter, ColumnarWriter, RowGroupMeta, WriterOptions,
};
pub use schema::{Field, Schema};
pub use stats::ColumnStats;
pub use strvec::StrVec;
pub use value::{DataType, Value};
pub use vector::{ColumnVector, RecordBatch};
