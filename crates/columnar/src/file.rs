//! The columnar file format: writer, reader, and footer metadata.
//!
//! Layout:
//!
//! ```text
//! "PCF1"                      magic
//! <column chunks>             encoded chunk payloads, back to back
//! <footer>                    schema + row-group directory + stats
//! footer_len: u32, little-endian
//! "PCF1"                      trailing magic
//! ```
//!
//! The chunks and the footer are written in the shared [`codec`](crate::codec)
//! and read back through its [`Reader`], so a damaged file is an error,
//! never a panic.
//!
//! Files are **immutable**: the writer produces a complete byte buffer in
//! one shot and nothing ever modifies it — matching the paper's LST
//! invariant that data files are write-once (§2.1). Row groups are the
//! split points used to map a large file onto multiple data cells (§2.3).

use crate::codec::{put_f64, put_i64, put_str, put_u64, DecodeResult, Reader};
use crate::{
    encoding, Bitmap, ColumnStats, ColumnVector, ColumnarError, ColumnarResult, DataType, Field,
    RecordBatch, Schema, Value,
};
use bytes::Bytes;

const MAGIC: &[u8; 4] = b"PCF1";

/// The most rows a row group may hold, 16 × the default `row_group_rows`:
/// the writer cuts no larger group and the reader refuses a footer that
/// claims one, so no chunk decoder allocates past it.
const MAX_GROUP_ROWS: usize = 1 << 20;

/// Physical encoding of one column chunk; its discriminant is its tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Encoding {
    DeltaI64 = 0,
    RleI64 = 1,
    PlainF64 = 2,
    PlainStr = 3,
    DictStr = 4,
    PackedBool = 5,
}

/// Every encoding, in tag order.
const ENCODINGS: [Encoding; 6] = [
    Encoding::DeltaI64,
    Encoding::RleI64,
    Encoding::PlainF64,
    Encoding::PlainStr,
    Encoding::DictStr,
    Encoding::PackedBool,
];

/// Every data type, in tag order: a type's tag is its declaration index.
const DATA_TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Utf8,
    DataType::Bool,
    DataType::Date32,
];

/// The element of `all` that a tag below `all.len()` names.
fn variant<T: Copy>(r: &mut Reader<'_>, all: &[T]) -> DecodeResult<T> {
    Ok(all[r.tag(all.len() as u64)? as usize])
}

/// Footer metadata for one column chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunkMeta {
    /// Byte offset of the chunk payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub length: u64,
    /// Statistics over the chunk.
    pub stats: ColumnStats,
    encoding: Encoding,
}

/// Footer metadata for one row group.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGroupMeta {
    /// Rows in this group.
    pub rows: u64,
    /// One chunk per schema column, in schema order.
    pub chunks: Vec<ColumnChunkMeta>,
}

/// Writer configuration.
#[derive(Debug, Clone, Copy)]
pub struct WriterOptions {
    /// Maximum rows per row group (at least 1, at most 2^20).
    pub row_group_rows: usize,
    /// Use dictionary encoding when `distinct/total` is below this ratio.
    pub dict_ratio: f64,
    /// Use RLE when `runs/total` is below this ratio.
    pub rle_ratio: f64,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            row_group_rows: 64 * 1024,
            dict_ratio: 0.5,
            rle_ratio: 0.5,
        }
    }
}

/// Streaming writer: feed batches, then [`finish`](ColumnarWriter::finish)
/// to obtain the immutable file bytes.
///
/// ```
/// use polaris_columnar::{
///     ColumnarFile, ColumnarWriter, DataType, Field, RecordBatch, Schema, Value,
///     WriterOptions,
/// };
///
/// let schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
/// let batch =
///     RecordBatch::from_rows(schema, &[vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
/// let bytes = ColumnarWriter::encode_file(&batch, WriterOptions::default()).unwrap();
/// let file = ColumnarFile::parse(bytes).unwrap();
/// assert_eq!(file.footer().num_rows(), 2);
/// assert_eq!(file.read_all().unwrap(), batch);
/// ```
pub struct ColumnarWriter {
    schema: Schema,
    options: WriterOptions,
    /// Pending rows not yet flushed into a row group.
    pending: Vec<ColumnVector>,
    pending_rows: usize,
    body: Vec<u8>,
    groups: Vec<RowGroupMeta>,
}

impl ColumnarWriter {
    /// Start a new file with the given schema.
    pub fn new(schema: Schema, options: WriterOptions) -> Self {
        let pending = schema
            .fields()
            .iter()
            .map(|f| ColumnVector::empty(f.data_type))
            .collect();
        ColumnarWriter {
            schema,
            options,
            pending,
            pending_rows: 0,
            body: MAGIC.to_vec(),
            groups: Vec::new(),
        }
    }

    /// Append a batch (must match the file schema).
    pub fn write_batch(&mut self, batch: &RecordBatch) -> ColumnarResult<()> {
        if batch.schema() != &self.schema {
            return Err(ColumnarError::corrupt(
                "batch schema differs from file schema",
            ));
        }
        for (acc, col) in self.pending.iter_mut().zip(batch.columns()) {
            acc.append(col)?;
        }
        self.pending_rows += batch.num_rows();
        let group_rows = self.options.row_group_rows.clamp(1, MAX_GROUP_ROWS);
        while self.pending_rows >= group_rows {
            self.flush_group(group_rows);
        }
        Ok(())
    }

    fn flush_group(&mut self, take_rows: usize) {
        let indices: Vec<usize> = (0..take_rows).collect();
        let rest: Vec<usize> = (take_rows..self.pending_rows).collect();
        let mut chunks = Vec::with_capacity(self.schema.len());
        let pending = std::mem::take(&mut self.pending);
        let mut remaining = Vec::with_capacity(self.schema.len());
        for col in &pending {
            let group_col = col.take(&indices);
            remaining.push(col.take(&rest));
            chunks.push(self.encode_chunk(&group_col));
        }
        self.pending = remaining;
        self.pending_rows -= take_rows;
        self.groups.push(RowGroupMeta {
            rows: take_rows as u64,
            chunks,
        });
    }

    /// Append one chunk to the body: its validity prefix (0 = all valid,
    /// 1 = a bitmap follows), then its values.
    fn encode_chunk(&mut self, col: &ColumnVector) -> ColumnChunkMeta {
        let offset = self.body.len();
        let stats = ColumnStats::from_vector(col);
        let options = self.options;
        let out = &mut self.body;
        match col.validity() {
            None => put_u64(out, 0),
            Some(v) => {
                put_u64(out, 1);
                let raw = v.to_bytes();
                put_u64(out, raw.len() as u64);
                out.extend_from_slice(&raw);
            }
        }
        let encoding = match col {
            ColumnVector::Int64 { values, .. } => encode_i64(values, options.rle_ratio, out),
            ColumnVector::Date32 { values, .. } => {
                let widened: Vec<i64> = values.iter().map(|&v| v as i64).collect();
                encode_i64(&widened, options.rle_ratio, out)
            }
            ColumnVector::Float64 { values, .. } => {
                encoding::encode_plain_f64(values, out);
                Encoding::PlainF64
            }
            ColumnVector::Utf8 { values, .. } => {
                if encoding::encode_dict_str(values, options.dict_ratio, out) {
                    Encoding::DictStr
                } else {
                    encoding::encode_plain_str(values, out);
                    Encoding::PlainStr
                }
            }
            ColumnVector::Bool { values, .. } => {
                encoding::encode_bool(values, out);
                Encoding::PackedBool
            }
        };
        ColumnChunkMeta {
            offset: offset as u64,
            length: (out.len() - offset) as u64,
            stats,
            encoding,
        }
    }

    /// Flush pending rows and produce the final immutable file bytes.
    pub fn finish(mut self) -> ColumnarResult<Bytes> {
        if self.pending_rows > 0 {
            self.flush_group(self.pending_rows);
        }
        let mut body = self.body;
        let footer_start = body.len();
        encode_footer(&mut body, &self.schema, &self.groups);
        let footer_len = (body.len() - footer_start) as u32;
        body.extend_from_slice(&footer_len.to_le_bytes());
        body.extend_from_slice(MAGIC);
        Ok(Bytes::from(body))
    }

    /// Convenience: encode a single batch as a complete file.
    pub fn encode_file(batch: &RecordBatch, options: WriterOptions) -> ColumnarResult<Bytes> {
        let mut w = ColumnarWriter::new(batch.schema().clone(), options);
        w.write_batch(batch)?;
        w.finish()
    }
}

/// RLE when runs are rarer than `rle_ratio` per value, else delta.
fn encode_i64(values: &[i64], rle_ratio: f64, out: &mut Vec<u8>) -> Encoding {
    let runs = encoding::run_count_i64(values);
    if !values.is_empty() && (runs as f64) < rle_ratio * values.len() as f64 {
        encoding::encode_rle_i64(values, out);
        Encoding::RleI64
    } else {
        encoding::encode_delta_i64(values, out);
        Encoding::DeltaI64
    }
}

/// A statistics bound: a tag, then the value; NULL stands for none.
fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u64(out, 0),
        Value::Int(x) => {
            put_u64(out, 1);
            put_i64(out, *x);
        }
        Value::Float(x) => {
            put_u64(out, 2);
            put_f64(out, *x);
        }
        Value::Str(x) => {
            put_u64(out, 3);
            put_str(out, x);
        }
        Value::Bool(x) => {
            put_u64(out, 4);
            put_u64(out, u64::from(*x));
        }
        Value::Date(x) => {
            put_u64(out, 5);
            put_i64(out, i64::from(*x));
        }
    }
}

/// Read what [`put_value`] wrote; NULL reads as `None`.
fn get_value(r: &mut Reader<'_>) -> DecodeResult<Option<Value>> {
    Ok(Some(match r.tag(6)? {
        0 => return Ok(None),
        1 => Value::Int(r.i64()?),
        2 => Value::Float(r.f64()?),
        3 => Value::Str(r.str()?.to_owned()),
        4 => Value::Bool(r.bool()?),
        _ => Value::Date(r.i32()?),
    }))
}

fn encode_footer(out: &mut Vec<u8>, schema: &Schema, groups: &[RowGroupMeta]) {
    put_u64(out, schema.len() as u64);
    for f in schema.fields() {
        put_str(out, &f.name);
        put_u64(out, f.data_type as u64);
        put_u64(out, u64::from(f.nullable));
    }
    put_u64(out, groups.len() as u64);
    for g in groups {
        put_u64(out, g.rows);
        for c in &g.chunks {
            put_u64(out, c.offset);
            put_u64(out, c.length);
            put_u64(out, c.encoding as u64);
            put_u64(out, c.stats.null_count);
            put_u64(out, c.stats.row_count);
            put_value(out, c.stats.min.as_ref().unwrap_or(&Value::Null));
            put_value(out, c.stats.max.as_ref().unwrap_or(&Value::Null));
        }
    }
}

/// Read a footer whose chunks lie in the first `body_end` bytes of the
/// file. Every chunk range is checked here, once, so a reader may slice or
/// range-read by it without checking it again.
fn decode_footer(footer: &[u8], body_end: u64) -> ColumnarResult<(Schema, Vec<RowGroupMeta>)> {
    let mut r = Reader::new(footer);
    let n_fields = r.count()?;
    let mut fields: Vec<Field> = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        let name = r.str()?;
        if fields.iter().any(|f| f.name == name) {
            return Err(ColumnarError::corrupt(format!("duplicate column {name:?}")));
        }
        fields.push(Field {
            name: name.to_owned(),
            data_type: variant(&mut r, &DATA_TYPES)?,
            nullable: r.bool()?,
        });
    }
    let schema = Schema::new(fields);
    let n_groups = r.count()?;
    let mut groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let rows = r.u64()?;
        if rows > MAX_GROUP_ROWS as u64 {
            return Err(ColumnarError::corrupt(format!("row group of {rows} rows")));
        }
        let mut chunks = Vec::with_capacity(schema.len());
        for _ in 0..schema.len() {
            let (offset, length) = (r.u64()?, r.u64()?);
            if offset.checked_add(length).is_none_or(|end| end > body_end) {
                return Err(ColumnarError::corrupt(
                    "chunk extends past the file's chunks",
                ));
            }
            chunks.push(ColumnChunkMeta {
                offset,
                length,
                encoding: variant(&mut r, &ENCODINGS)?,
                stats: ColumnStats {
                    null_count: r.u64()?,
                    row_count: r.u64()?,
                    min: get_value(&mut r)?,
                    max: get_value(&mut r)?,
                },
            });
        }
        groups.push(RowGroupMeta { rows, chunks });
    }
    r.finish()?;
    Ok((schema, groups))
}

/// Footer metadata of a columnar file, parsed without the chunk payloads.
///
/// Enables *lazy* reading over remote storage: fetch the tail of the file
/// (footer + trailing length + magic), prune row groups on statistics, and
/// range-read only the chunk payloads a query actually needs — the access
/// pattern real Parquet readers use against object stores. Parsing checks
/// every chunk range against the file, so a reader may fetch by it as is.
#[derive(Debug, Clone)]
pub struct ColumnarFooter {
    schema: Schema,
    groups: Vec<RowGroupMeta>,
}

impl ColumnarFooter {
    /// Bytes from the end of the file that are guaranteed to contain the
    /// trailing `footer_len` + magic; fetch at least this much tail first.
    pub const TAIL_PROBE: u64 = 8;

    /// Footer length recorded in the 8-byte tail (`footer_len` + magic).
    pub fn footer_len_from_tail(tail8: &[u8]) -> ColumnarResult<u64> {
        match tail8.split_first_chunk::<4>() {
            Some((len, magic)) if magic == MAGIC => Ok(u64::from(u32::from_le_bytes(*len))),
            _ => Err(ColumnarError::corrupt("bad trailing magic")),
        }
    }

    /// Parse a footer from the final `footer_len + 8` bytes of a file of
    /// total length `file_len`.
    pub fn parse_tail(tail: Bytes, file_len: u64) -> ColumnarResult<Self> {
        let n = tail.len();
        if n < 8 || n as u64 > file_len {
            return Err(ColumnarError::corrupt("footer tail too short"));
        }
        if Self::footer_len_from_tail(&tail[n - 8..])? + 8 != n as u64 {
            return Err(ColumnarError::corrupt(
                "footer length disagrees with the tail",
            ));
        }
        let (schema, groups) = decode_footer(&tail[..n - 8], file_len - n as u64)?;
        Ok(ColumnarFooter { schema, groups })
    }

    /// The file schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row-group directory.
    pub fn row_groups(&self) -> &[RowGroupMeta] {
        &self.groups
    }

    /// Total rows across all row groups.
    pub fn num_rows(&self) -> u64 {
        self.groups.iter().map(|g| g.rows).sum()
    }

    /// The named column's statistics, merged over every row group.
    pub fn column_stats(&self, name: &str) -> ColumnarResult<ColumnStats> {
        let idx = self.schema.index_of(name)?;
        let mut acc = ColumnStats::default();
        for g in &self.groups {
            acc.merge(&g.chunks[idx].stats);
        }
        Ok(acc)
    }

    /// Payload bytes a scan of `cols` would fetch for one row group —
    /// the scheduling weight of a row-group-aligned morsel.
    pub fn group_chunk_bytes(&self, group: usize, cols: &[usize]) -> u64 {
        self.groups
            .get(group)
            .map(|g| {
                cols.iter()
                    .filter_map(|&c| g.chunks.get(c))
                    .map(|c| c.length)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Decode one column chunk from its raw payload bytes (as fetched by a
    /// range read of `[chunk.offset, chunk.offset + chunk.length)`): the
    /// validity prefix, then the encoded values, `rows` of them.
    pub fn decode_chunk_payload(
        &self,
        field: &Field,
        chunk: &ColumnChunkMeta,
        payload: Bytes,
        rows: usize,
    ) -> ColumnarResult<ColumnVector> {
        if payload.len() as u64 != chunk.length {
            return Err(ColumnarError::LengthMismatch {
                expected: chunk.length as usize,
                found: payload.len(),
            });
        }
        let mut r = Reader::new(&payload);
        let validity = if r.bool()? {
            let bitmap = Bitmap::from_bytes(r.count().and_then(|n| r.bytes(n))?)?;
            if bitmap.len() != rows {
                return Err(ColumnarError::corrupt("validity bitmap length"));
            }
            Some(bitmap)
        } else {
            None
        };
        let r = &mut r;
        let vector = match (field.data_type, chunk.encoding) {
            (DataType::Int64, Encoding::DeltaI64) => ColumnVector::Int64 {
                values: encoding::decode_delta_i64(r, rows)?,
                validity,
            },
            (DataType::Int64, Encoding::RleI64) => ColumnVector::Int64 {
                values: encoding::decode_rle_i64(r, rows)?,
                validity,
            },
            (DataType::Date32, Encoding::DeltaI64) => ColumnVector::Date32 {
                values: encoding::decode_delta_i64(r, rows)?
                    .into_iter()
                    .map(|v| v as i32)
                    .collect(),
                validity,
            },
            (DataType::Date32, Encoding::RleI64) => ColumnVector::Date32 {
                values: encoding::decode_rle_i64(r, rows)?
                    .into_iter()
                    .map(|v| v as i32)
                    .collect(),
                validity,
            },
            (DataType::Float64, Encoding::PlainF64) => ColumnVector::Float64 {
                values: encoding::decode_plain_f64(r, rows)?,
                validity,
            },
            (DataType::Utf8, Encoding::PlainStr) => ColumnVector::Utf8 {
                values: encoding::decode_plain_str(r, rows)?,
                validity,
            },
            (DataType::Utf8, Encoding::DictStr) => ColumnVector::Utf8 {
                values: encoding::decode_dict_str(r, rows)?,
                validity,
            },
            (DataType::Bool, Encoding::PackedBool) => ColumnVector::Bool {
                values: encoding::decode_bool(r, rows)?,
                validity,
            },
            (dt, enc) => {
                return Err(ColumnarError::corrupt(format!(
                    "encoding {enc:?} invalid for type {dt}"
                )))
            }
        };
        r.finish()?;
        Ok(vector)
    }
}

/// A parsed, immutable columnar file.
///
/// Parsing reads only the footer; row groups decode lazily on demand so a
/// scan that prunes on stats never touches pruned chunk bytes.
#[derive(Debug, Clone)]
pub struct ColumnarFile {
    data: Bytes,
    footer: ColumnarFooter,
}

impl ColumnarFile {
    /// Parse file bytes (footer only).
    pub fn parse(data: Bytes) -> ColumnarResult<Self> {
        let n = data.len();
        if n < 12 || &data[..4] != MAGIC {
            return Err(ColumnarError::corrupt("bad file magic"));
        }
        let footer_len = ColumnarFooter::footer_len_from_tail(&data[n - 8..])?;
        let tail_start = (n as u64)
            .checked_sub(footer_len + 8)
            .filter(|&start| start >= 4)
            .ok_or_else(|| ColumnarError::corrupt("footer length out of range"))?;
        let footer = ColumnarFooter::parse_tail(data.slice(tail_start as usize..), n as u64)?;
        Ok(ColumnarFile { data, footer })
    }

    /// The parsed footer: schema, row groups and their statistics.
    pub fn footer(&self) -> &ColumnarFooter {
        &self.footer
    }

    /// Decode one row group into a batch.
    pub fn read_row_group(&self, group: usize) -> ColumnarResult<RecordBatch> {
        let footer = &self.footer;
        let g = footer
            .groups
            .get(group)
            .ok_or_else(|| ColumnarError::corrupt(format!("row group {group} out of range")))?;
        let columns = footer
            .schema
            .fields()
            .iter()
            .zip(&g.chunks)
            .map(|(field, chunk)| {
                let payload = self
                    .data
                    .slice(chunk.offset as usize..(chunk.offset + chunk.length) as usize);
                footer.decode_chunk_payload(field, chunk, payload, g.rows as usize)
            })
            .collect::<ColumnarResult<_>>()?;
        RecordBatch::new(footer.schema.clone(), columns)
    }

    /// Decode the entire file into one batch.
    pub fn read_all(&self) -> ColumnarResult<RecordBatch> {
        if self.footer.groups.is_empty() {
            return Ok(RecordBatch::empty(self.footer.schema.clone()));
        }
        let batches = (0..self.footer.groups.len())
            .map(|i| self.read_row_group(i))
            .collect::<ColumnarResult<Vec<_>>>()?;
        RecordBatch::concat(&batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::nullable("flag", DataType::Utf8),
            Field::new("ok", DataType::Bool),
            Field::new("day", DataType::Date32),
        ])
    }

    fn test_batch(n: usize) -> RecordBatch {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Float(i as f64 * 1.5),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("f{}", i % 3))
                    },
                    Value::Bool(i % 2 == 0),
                    Value::Date((i / 10) as i32),
                ]
            })
            .collect();
        RecordBatch::from_rows(test_schema(), &rows).unwrap()
    }

    #[test]
    fn round_trip_single_group() {
        let batch = test_batch(100);
        let bytes = ColumnarWriter::encode_file(&batch, WriterOptions::default()).unwrap();
        let file = ColumnarFile::parse(bytes).unwrap();
        assert_eq!(file.footer().num_rows(), 100);
        assert_eq!(file.footer().row_groups().len(), 1);
        assert_eq!(file.read_all().unwrap(), batch);
    }

    #[test]
    fn round_trip_multiple_groups() {
        let batch = test_batch(1000);
        let opts = WriterOptions {
            row_group_rows: 128,
            ..Default::default()
        };
        let bytes = ColumnarWriter::encode_file(&batch, opts).unwrap();
        let file = ColumnarFile::parse(bytes).unwrap();
        assert_eq!(file.footer().row_groups().len(), 8); // ceil(1000/128)
        assert_eq!(file.read_all().unwrap(), batch);
        // individual group reads line up
        let g0 = file.read_row_group(0).unwrap();
        assert_eq!(g0.num_rows(), 128);
        assert_eq!(g0.column(0).value(5), Value::Int(5));
        let last = file.read_row_group(7).unwrap();
        assert_eq!(last.num_rows(), 1000 - 7 * 128);
    }

    #[test]
    fn empty_file() {
        let batch = RecordBatch::empty(test_schema());
        let bytes = ColumnarWriter::encode_file(&batch, WriterOptions::default()).unwrap();
        let file = ColumnarFile::parse(bytes).unwrap();
        assert_eq!(file.footer().num_rows(), 0);
        assert_eq!(file.read_all().unwrap().num_rows(), 0);
    }

    #[test]
    fn stats_survive_round_trip() {
        let batch = test_batch(50);
        let bytes = ColumnarWriter::encode_file(&batch, WriterOptions::default()).unwrap();
        let file = ColumnarFile::parse(bytes).unwrap();
        let id_stats = file.footer().column_stats("id").unwrap();
        assert_eq!(id_stats.min, Some(Value::Int(0)));
        assert_eq!(id_stats.max, Some(Value::Int(49)));
        assert_eq!(id_stats.row_count, 50);
        let flag_stats = file.footer().column_stats("flag").unwrap();
        assert_eq!(flag_stats.null_count, 8); // i % 7 == 0 for i in 0..50
    }

    #[test]
    fn multi_batch_write() {
        let mut w = ColumnarWriter::new(test_schema(), WriterOptions::default());
        w.write_batch(&test_batch(30)).unwrap();
        w.write_batch(&test_batch(20)).unwrap();
        let file = ColumnarFile::parse(w.finish().unwrap()).unwrap();
        assert_eq!(file.footer().num_rows(), 50);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut w = ColumnarWriter::new(test_schema(), WriterOptions::default());
        let other = RecordBatch::empty(Schema::new(vec![Field::new("x", DataType::Int64)]));
        assert!(w.write_batch(&other).is_err());
    }

    #[test]
    fn corrupt_files_rejected() {
        assert!(ColumnarFile::parse(Bytes::from_static(b"nope")).is_err());
        assert!(ColumnarFile::parse(Bytes::from_static(b"PCF1xxxxPCF1")).is_err());
        let good = ColumnarWriter::encode_file(&test_batch(10), WriterOptions::default()).unwrap();
        // flip a footer-length byte
        let mut bad = good.to_vec();
        let n = bad.len();
        bad[n - 8] ^= 0xff;
        assert!(ColumnarFile::parse(Bytes::from(bad)).is_err());
        // truncate
        assert!(ColumnarFile::parse(good.slice(..good.len() / 2)).is_err());
    }

    /// Nine `0xFF` bytes over any stretch of a three-column file of four
    /// groups: laid over a column name's length, they once made the
    /// footer's bounds check wrap and `parse` panic.
    #[test]
    fn runs_of_ff_are_errors_not_panics() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]);
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("n{}", i % 5))
                    },
                    Value::Float(i as f64 / 2.0),
                ]
            })
            .collect();
        let batch = RecordBatch::from_rows(schema, &rows).unwrap();
        let opts = WriterOptions {
            row_group_rows: 16,
            ..Default::default()
        };
        let good = ColumnarWriter::encode_file(&batch, opts).unwrap();
        let file = ColumnarFile::parse(good.clone()).unwrap();
        assert_eq!(file.footer().row_groups().len(), 4);
        for at in 0..=good.len() - 9 {
            let mut bad = good.to_vec();
            bad[at..at + 9].fill(0xFF);
            if let Ok(file) = ColumnarFile::parse(Bytes::from(bad)) {
                let _ = file.read_all();
            }
        }
    }

    /// One Int64 column, one group of `rows` rows whose one chunk holds the
    /// value 1 and claims to lie at `offset`, `length` bytes long.
    fn one_chunk_file(offset: u64, length: u64, rows: u64) -> Bytes {
        let mut footer = Vec::new();
        put_u64(&mut footer, 1);
        put_str(&mut footer, "v");
        for field in [0, 0, 1, rows, offset, length, 0, 0, rows, 0, 0] {
            put_u64(&mut footer, field);
        }
        let mut file = MAGIC.to_vec();
        file.extend_from_slice(&[0, 1, 2]); // all valid, one value, 1
        file.extend_from_slice(&footer);
        file.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        file.extend_from_slice(MAGIC);
        Bytes::from(file)
    }

    /// Every chunk range is checked once, at parse: one whose end passes
    /// 2^64 or runs into the footer is refused there, as is a group of
    /// more rows than any group may hold.
    #[test]
    fn footers_are_checked_at_parse() {
        let file = ColumnarFile::parse(one_chunk_file(4, 3, 1)).unwrap();
        assert_eq!(file.read_all().unwrap().column(0).value(0), Value::Int(1));
        assert!(ColumnarFile::parse(one_chunk_file(u64::MAX - 1, 3, 1)).is_err());
        assert!(ColumnarFile::parse(one_chunk_file(4, 4, 1)).is_err());
        let too_many = MAX_GROUP_ROWS as u64 + 1;
        assert!(ColumnarFile::parse(one_chunk_file(4, 3, too_many)).is_err());
    }

    /// The writer cuts groups of at least one row and at most as many as
    /// the reader accepts, whatever the options ask for.
    #[test]
    fn group_size_is_clamped() {
        let schema = Schema::new(vec![Field::new("v", DataType::Int64)]);
        let column = |n| ColumnVector::Int64 {
            values: vec![7; n],
            validity: None,
        };
        for (rows, asked, groups) in [(3, 0, 3), (MAX_GROUP_ROWS + 1, usize::MAX, 2)] {
            let batch = RecordBatch::new(schema.clone(), vec![column(rows)]).unwrap();
            let opts = WriterOptions {
                row_group_rows: asked,
                ..Default::default()
            };
            let file = ColumnarFile::parse(ColumnarWriter::encode_file(&batch, opts).unwrap());
            let file = file.unwrap();
            assert_eq!(file.footer().row_groups().len(), groups);
            assert_eq!(file.read_all().unwrap(), batch);
        }
    }

    /// The bytes of a two-group file that exercises every encoding the
    /// writer chooses, pinned so a change to how it chooses (or to the codes
    /// a dictionary hands out) shows here first.
    #[test]
    fn golden_bytes() {
        let schema = Schema::new(vec![
            Field::nullable("dict", DataType::Utf8),
            Field::new("plain", DataType::Utf8),
            Field::new("delta", DataType::Int64),
            Field::new("rle", DataType::Int64),
            Field::nullable("f", DataType::Float64),
            Field::new("b", DataType::Bool),
            Field::new("d", DataType::Date32),
        ]);
        let s = |v: &str| Value::Str(v.into());
        // Group 0's `dict` holds 3 distinct values (NULL slots read as "")
        // in 8 rows, under the 0.5 ratio: dictionary. Group 1's holds 4,
        // exactly at it: plain.
        let dict = [
            s("é"),
            s("a"),
            Value::Null,
            s("a"),
            s(""),
            s("é"),
            s("a"),
            Value::Null,
            s("x"),
            s("y"),
            s("x"),
            s("z"),
            Value::Null,
            s("x"),
            s("y"),
            s("x"),
        ];
        let floats = [
            Value::Float(1.5),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Null,
            Value::Float(0.0),
            Value::Float(-2.25),
            Value::Float(f64::INFINITY),
            Value::Float(1e300),
        ];
        let rows: Vec<Vec<Value>> = (0..16)
            .map(|i| {
                vec![
                    dict[i].clone(),
                    Value::Str(format!("p{i}")),
                    Value::Int(1000 + 3 * i as i64 - 40),
                    Value::Int(if i % 8 < 5 { 7 } else { -1 }),
                    floats[i % 8].clone(),
                    Value::Bool(i % 3 == 0),
                    Value::Date(i as i32 * 10 - 20),
                ]
            })
            .collect();
        let batch = RecordBatch::from_rows(schema, &rows).unwrap();
        let opts = WriterOptions {
            row_group_rows: 8,
            ..Default::default()
        };
        let bytes = ColumnarWriter::encode_file(&batch, opts).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let float_chunk = concat!(
            "01100800000000000000f700000000000000", // validity: row 3 NULL
            "08000000000000f83f0000000000000080000000000000f87f0000000000000000",
            "000000000000000000000000000002c0000000000000f07f9c7500883ce4377e",
        );
        assert_eq!(
            hex,
            [
                "50434631",
                // Group 0: dict ["é", "a", ""], codes 0 1 2 1 2 0 1 2 — "" is
                // the NULL slots' value and the empty string's alike.
                "011008000000000000007b000000000000000302c3a9016100080001020102000102",
                "0008027030027031027032027033027034027035027036027037", // plain p0..p7
                "0008800f06060606060606",                               // delta: 960, then +3 each
                "00080e050103",                                         // RLE: 7 x5, -1 x3
                float_chunk,            // 1.5 -0.0 NaN NULL 0.0 -2.25 inf 1e300
                "000849",               // bools, 8 per byte
                "00082714141414141414", // dates as delta: -20, then +10 each
                // Group 1: four distinct of eight is not under the ratio: plain.
                "01100800000000000000ef0000000000000008017801790178017a00017801790178",
                "0008027038027039037031300370313103703132037031330370313403703135",
                "0008b00f06060606060606",
                "00080e050103",
                float_chunk,
                "000892",
                "00087814141414141414",
                // Footer: schema, then per group its rows and per chunk its
                // offset, length, stats and encoding (4 dict, 3 plain string,
                // 0 delta, 1 RLE, 2 plain f64, 5 packed bool).
                "070464696374020105706c61696e02000564656c7461000003726c6500000166",
                "010101620300016404000208042204020803000302c3a9261a03000803027030",
                "03027037400b00000801800f01aa0f4b060100080101010e5153020108020000",
                "0000000002c002000000000000f07fa4010305000804000401a7010a00000805",
                "27056408b1012203010803017803017ad30120030008030370313003027039f3",
                "010b00000801b00f01da0ffe01060100080101010e8402530201080200000000",
                "000002c002000000000000f07fd7020305000804000401da020a000008057805",
                "8402",
                "e2000000", // footer length
                "50434631",
            ]
            .concat()
        );
    }

    #[test]
    fn row_group_out_of_range() {
        let bytes = ColumnarWriter::encode_file(&test_batch(10), WriterOptions::default()).unwrap();
        let file = ColumnarFile::parse(bytes).unwrap();
        assert!(file.read_row_group(1).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn arbitrary_round_trip(
            ints in proptest::collection::vec(any::<i64>(), 1..200),
            group_rows in 1usize..64,
        ) {
            let schema = Schema::new(vec![
                Field::new("v", DataType::Int64),
            ]);
            let rows: Vec<Vec<Value>> = ints.iter().map(|&i| vec![Value::Int(i)]).collect();
            let batch = RecordBatch::from_rows(schema, &rows).unwrap();
            let opts = WriterOptions { row_group_rows: group_rows, ..Default::default() };
            let bytes = ColumnarWriter::encode_file(&batch, opts).unwrap();
            let file = ColumnarFile::parse(bytes).unwrap();
            prop_assert_eq!(file.read_all().unwrap(), batch);
        }

        #[test]
        fn nullable_strings_round_trip(
            strs in proptest::collection::vec(proptest::option::of(".{0,12}"), 0..100),
        ) {
            let schema = Schema::new(vec![Field::nullable("s", DataType::Utf8)]);
            let rows: Vec<Vec<Value>> = strs
                .iter()
                .map(|o| vec![o.clone().map_or(Value::Null, Value::Str)])
                .collect();
            let batch = RecordBatch::from_rows(schema, &rows).unwrap();
            let bytes = ColumnarWriter::encode_file(&batch, WriterOptions::default()).unwrap();
            let file = ColumnarFile::parse(bytes).unwrap();
            prop_assert_eq!(file.read_all().unwrap(), batch);
        }
    }
}
