//! The columnar file format: writer, reader, and footer metadata.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "PCF1"                      magic
//! <column chunks>             encoded chunk payloads, back to back
//! <footer>                    schema + row-group directory + stats
//! footer_len: u32
//! "PCF1"                      trailing magic
//! ```
//!
//! Files are **immutable**: the writer produces a complete byte buffer in
//! one shot and nothing ever modifies it — matching the paper's LST
//! invariant that data files are write-once (§2.1). Row groups are the
//! split points used to map a large file onto multiple data cells (§2.3).

use crate::encoding::{self, get_uvarint, put_uvarint};
use crate::{
    Bitmap, ColumnStats, ColumnVector, ColumnarError, ColumnarResult, DataType, Field, RecordBatch,
    Schema, Value,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"PCF1";

/// Physical encoding of one column chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Encoding {
    DeltaI64 = 0,
    RleI64 = 1,
    PlainF64 = 2,
    PlainStr = 3,
    DictStr = 4,
    PackedBool = 5,
}

impl Encoding {
    fn from_u8(v: u8) -> ColumnarResult<Self> {
        Ok(match v {
            0 => Encoding::DeltaI64,
            1 => Encoding::RleI64,
            2 => Encoding::PlainF64,
            3 => Encoding::PlainStr,
            4 => Encoding::DictStr,
            5 => Encoding::PackedBool,
            other => return Err(ColumnarError::corrupt(format!("unknown encoding {other}"))),
        })
    }
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
    encoding: u8,
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
    /// Maximum rows per row group.
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
/// assert_eq!(file.num_rows(), 2);
/// assert_eq!(file.read_all().unwrap(), batch);
/// ```
pub struct ColumnarWriter {
    schema: Schema,
    options: WriterOptions,
    /// Pending rows not yet flushed into a row group.
    pending: Vec<ColumnVector>,
    pending_rows: usize,
    body: BytesMut,
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
        let mut body = BytesMut::new();
        body.put_slice(MAGIC);
        ColumnarWriter {
            schema,
            options,
            pending,
            pending_rows: 0,
            body,
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
        while self.pending_rows >= self.options.row_group_rows {
            self.flush_group(self.options.row_group_rows)?;
        }
        Ok(())
    }

    fn flush_group(&mut self, take_rows: usize) -> ColumnarResult<()> {
        let indices: Vec<usize> = (0..take_rows).collect();
        let rest: Vec<usize> = (take_rows..self.pending_rows).collect();
        let mut chunks = Vec::with_capacity(self.schema.len());
        let pending = std::mem::take(&mut self.pending);
        let mut remaining = Vec::with_capacity(self.schema.len());
        for col in &pending {
            let group_col = col.take(&indices);
            remaining.push(col.take(&rest));
            chunks.push(self.encode_chunk(&group_col)?);
        }
        self.pending = remaining;
        self.pending_rows -= take_rows;
        self.groups.push(RowGroupMeta {
            rows: take_rows as u64,
            chunks,
        });
        Ok(())
    }

    fn encode_chunk(&mut self, col: &ColumnVector) -> ColumnarResult<ColumnChunkMeta> {
        let offset = self.body.len() as u64;
        let stats = ColumnStats::from_vector(col);
        let mut payload = BytesMut::new();
        // Validity prefix: 0 = all valid, 1 = bitmap follows.
        match col.validity() {
            None => payload.put_u8(0),
            Some(v) => {
                payload.put_u8(1);
                let raw = v.to_bytes();
                put_uvarint(&mut payload, raw.len() as u64);
                payload.put_slice(&raw);
            }
        }
        let encoding = match col {
            ColumnVector::Int64 { values, .. } => self.encode_i64(values, &mut payload),
            ColumnVector::Date32 { values, .. } => {
                let widened: Vec<i64> = values.iter().map(|&v| v as i64).collect();
                self.encode_i64(&widened, &mut payload)
            }
            ColumnVector::Float64 { values, .. } => {
                encoding::encode_plain_f64(values, &mut payload);
                Encoding::PlainF64
            }
            ColumnVector::Utf8 { values, .. } => {
                if encoding::encode_dict_str(values, self.options.dict_ratio, &mut payload) {
                    Encoding::DictStr
                } else {
                    encoding::encode_plain_str(values, &mut payload);
                    Encoding::PlainStr
                }
            }
            ColumnVector::Bool { values, .. } => {
                encoding::encode_bool(values, &mut payload);
                Encoding::PackedBool
            }
        };
        self.body.put_slice(&payload);
        Ok(ColumnChunkMeta {
            offset,
            length: payload.len() as u64,
            stats,
            encoding: encoding as u8,
        })
    }

    fn encode_i64(&self, values: &[i64], payload: &mut BytesMut) -> Encoding {
        let runs = encoding::run_count_i64(values);
        if !values.is_empty() && (runs as f64) < self.options.rle_ratio * values.len() as f64 {
            encoding::encode_rle_i64(values, payload);
            Encoding::RleI64
        } else {
            encoding::encode_delta_i64(values, payload);
            Encoding::DeltaI64
        }
    }

    /// Flush pending rows and produce the final immutable file bytes.
    pub fn finish(mut self) -> ColumnarResult<Bytes> {
        if self.pending_rows > 0 {
            self.flush_group(self.pending_rows)?;
        }
        let footer_start = self.body.len();
        let mut body = self.body;
        write_footer(&mut body, &self.schema, &self.groups);
        let footer_len = (body.len() - footer_start) as u32;
        body.put_u32_le(footer_len);
        body.put_slice(MAGIC);
        Ok(body.freeze())
    }

    /// Convenience: encode a single batch as a complete file.
    pub fn encode_file(batch: &RecordBatch, options: WriterOptions) -> ColumnarResult<Bytes> {
        let mut w = ColumnarWriter::new(batch.schema().clone(), options);
        w.write_batch(batch)?;
        w.finish()
    }
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(x) => {
            buf.put_u8(1);
            put_uvarint(buf, encoding::zigzag(*x));
        }
        Value::Float(x) => {
            buf.put_u8(2);
            buf.put_f64_le(*x);
        }
        Value::Str(x) => {
            buf.put_u8(3);
            put_uvarint(buf, x.len() as u64);
            buf.put_slice(x.as_bytes());
        }
        Value::Bool(x) => {
            buf.put_u8(4);
            buf.put_u8(*x as u8);
        }
        Value::Date(x) => {
            buf.put_u8(5);
            put_uvarint(buf, encoding::zigzag(*x as i64));
        }
    }
}

fn get_value(buf: &mut Bytes) -> ColumnarResult<Value> {
    if !buf.has_remaining() {
        return Err(ColumnarError::corrupt("truncated value"));
    }
    Ok(match buf.get_u8() {
        0 => Value::Null,
        1 => Value::Int(encoding::unzigzag(get_uvarint(buf)?)),
        2 => {
            if buf.remaining() < 8 {
                return Err(ColumnarError::corrupt("truncated float value"));
            }
            Value::Float(buf.get_f64_le())
        }
        3 => {
            let len = get_uvarint(buf)? as usize;
            if buf.remaining() < len {
                return Err(ColumnarError::corrupt("truncated string value"));
            }
            let raw = buf.split_to(len);
            Value::Str(
                std::str::from_utf8(&raw)
                    .map_err(|_| ColumnarError::corrupt("invalid UTF-8 value"))?
                    .to_owned(),
            )
        }
        4 => {
            if !buf.has_remaining() {
                return Err(ColumnarError::corrupt("truncated bool value"));
            }
            Value::Bool(buf.get_u8() != 0)
        }
        5 => Value::Date(encoding::unzigzag(get_uvarint(buf)?) as i32),
        other => return Err(ColumnarError::corrupt(format!("unknown value tag {other}"))),
    })
}

fn dtype_to_u8(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
        DataType::Date32 => 4,
    }
}

fn dtype_from_u8(v: u8) -> ColumnarResult<DataType> {
    Ok(match v {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Bool,
        4 => DataType::Date32,
        other => return Err(ColumnarError::corrupt(format!("unknown data type {other}"))),
    })
}

fn write_footer(buf: &mut BytesMut, schema: &Schema, groups: &[RowGroupMeta]) {
    put_uvarint(buf, schema.len() as u64);
    for f in schema.fields() {
        put_uvarint(buf, f.name.len() as u64);
        buf.put_slice(f.name.as_bytes());
        buf.put_u8(dtype_to_u8(f.data_type));
        buf.put_u8(f.nullable as u8);
    }
    put_uvarint(buf, groups.len() as u64);
    for g in groups {
        put_uvarint(buf, g.rows);
        for c in &g.chunks {
            put_uvarint(buf, c.offset);
            put_uvarint(buf, c.length);
            buf.put_u8(c.encoding);
            put_uvarint(buf, c.stats.null_count);
            put_uvarint(buf, c.stats.row_count);
            put_value(buf, c.stats.min.as_ref().unwrap_or(&Value::Null));
            put_value(buf, c.stats.max.as_ref().unwrap_or(&Value::Null));
        }
    }
}

fn read_footer(mut buf: Bytes) -> ColumnarResult<(Schema, Vec<RowGroupMeta>)> {
    let n_fields = get_uvarint(&mut buf)? as usize;
    let mut fields = Vec::with_capacity(n_fields.min(1 << 16));
    for _ in 0..n_fields {
        let len = get_uvarint(&mut buf)? as usize;
        if buf.remaining() < len + 2 {
            return Err(ColumnarError::corrupt("truncated footer field"));
        }
        let raw = buf.split_to(len);
        let name = std::str::from_utf8(&raw)
            .map_err(|_| ColumnarError::corrupt("invalid UTF-8 field name"))?
            .to_owned();
        let data_type = dtype_from_u8(buf.get_u8())?;
        let nullable = buf.get_u8() != 0;
        fields.push(Field {
            name,
            data_type,
            nullable,
        });
    }
    let schema = Schema::new(fields);
    let n_groups = get_uvarint(&mut buf)? as usize;
    let mut groups = Vec::with_capacity(n_groups.min(1 << 16));
    for _ in 0..n_groups {
        let rows = get_uvarint(&mut buf)?;
        let mut chunks = Vec::with_capacity(schema.len());
        for _ in 0..schema.len() {
            let offset = get_uvarint(&mut buf)?;
            let length = get_uvarint(&mut buf)?;
            let enc = if buf.has_remaining() {
                buf.get_u8()
            } else {
                return Err(ColumnarError::corrupt("truncated chunk meta"));
            };
            let null_count = get_uvarint(&mut buf)?;
            let row_count = get_uvarint(&mut buf)?;
            let min = match get_value(&mut buf)? {
                Value::Null => None,
                v => Some(v),
            };
            let max = match get_value(&mut buf)? {
                Value::Null => None,
                v => Some(v),
            };
            chunks.push(ColumnChunkMeta {
                offset,
                length,
                encoding: enc,
                stats: ColumnStats {
                    min,
                    max,
                    null_count,
                    row_count,
                },
            });
        }
        groups.push(RowGroupMeta { rows, chunks });
    }
    Ok((schema, groups))
}

/// Footer metadata of a columnar file, parsed without the chunk payloads.
///
/// Enables *lazy* reading over remote storage: fetch the tail of the file
/// (footer + trailing length + magic), prune row groups on statistics, and
/// range-read only the chunk payloads a query actually needs — the access
/// pattern real Parquet readers use against object stores.
#[derive(Debug, Clone)]
pub struct ColumnarFooter {
    schema: Schema,
    groups: Vec<RowGroupMeta>,
    /// Total file length (needed to validate chunk ranges).
    file_len: u64,
}

impl ColumnarFooter {
    /// Bytes from the end of the file that are guaranteed to contain the
    /// trailing `footer_len` + magic; fetch at least this much tail first.
    pub const TAIL_PROBE: u64 = 8;

    /// Footer length recorded in the 8-byte tail (`footer_len` + magic).
    pub fn footer_len_from_tail(tail8: &[u8]) -> ColumnarResult<u64> {
        if tail8.len() != 8 || &tail8[4..] != MAGIC {
            return Err(ColumnarError::corrupt("bad trailing magic"));
        }
        Ok(u32::from_le_bytes(tail8[..4].try_into().expect("4 bytes")) as u64)
    }

    /// Parse a footer from the final `footer_len + 8` bytes of a file of
    /// total length `file_len`.
    pub fn parse_tail(tail: Bytes, file_len: u64) -> ColumnarResult<Self> {
        if (tail.len() as u64) < 8 || tail.len() as u64 > file_len {
            return Err(ColumnarError::corrupt("footer tail too short"));
        }
        let n = tail.len();
        if &tail[n - 4..] != MAGIC {
            return Err(ColumnarError::corrupt("bad trailing magic"));
        }
        let footer = tail.slice(..n - 8);
        let (schema, groups) = read_footer(footer)?;
        Ok(ColumnarFooter {
            schema,
            groups,
            file_len,
        })
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
    /// range read of `[chunk.offset, chunk.offset + chunk.length)`).
    pub fn decode_chunk_payload(
        &self,
        field: &Field,
        chunk: &ColumnChunkMeta,
        payload: Bytes,
        rows: usize,
    ) -> ColumnarResult<ColumnVector> {
        if chunk.offset + chunk.length > self.file_len {
            return Err(ColumnarError::corrupt("chunk extends past end of file"));
        }
        if payload.len() as u64 != chunk.length {
            return Err(ColumnarError::LengthMismatch {
                expected: chunk.length as usize,
                found: payload.len(),
            });
        }
        decode_chunk_payload(field, chunk.encoding, payload, rows)
    }
}

/// A parsed, immutable columnar file.
///
/// Parsing reads only the footer; row groups decode lazily on demand so a
/// scan that prunes on stats never touches pruned chunk bytes.
#[derive(Debug, Clone)]
pub struct ColumnarFile {
    data: Bytes,
    schema: Schema,
    groups: Vec<RowGroupMeta>,
    footer_len: usize,
}

impl ColumnarFile {
    /// Parse file bytes (footer only).
    pub fn parse(data: Bytes) -> ColumnarResult<Self> {
        let n = data.len();
        if n < 12 || &data[..4] != MAGIC || &data[n - 4..] != MAGIC {
            return Err(ColumnarError::corrupt("bad file magic"));
        }
        let footer_len =
            u32::from_le_bytes(data[n - 8..n - 4].try_into().expect("4 bytes")) as usize;
        if footer_len + 12 > n {
            return Err(ColumnarError::corrupt("footer length out of range"));
        }
        let footer = data.slice(n - 8 - footer_len..n - 8);
        let (schema, groups) = read_footer(footer)?;
        Ok(ColumnarFile {
            data,
            schema,
            groups,
            footer_len,
        })
    }

    /// Metadata bytes a lazy reader transfers to learn this file's layout:
    /// the 8-byte tail probe plus the footer tail (`footer_len + 8`).
    /// Eager scans charge this to `ScanMeter::bytes_read` so eager and
    /// lazy byte accounting stay comparable.
    pub fn footer_overhead_bytes(&self) -> u64 {
        self.footer_len as u64 + 16
    }

    /// The file schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows across all row groups.
    pub fn num_rows(&self) -> u64 {
        self.groups.iter().map(|g| g.rows).sum()
    }

    /// Row-group directory.
    pub fn row_groups(&self) -> &[RowGroupMeta] {
        &self.groups
    }

    /// Merged file-level stats for the named column.
    pub fn column_stats(&self, name: &str) -> ColumnarResult<ColumnStats> {
        let idx = self.schema.index_of(name)?;
        let mut acc = ColumnStats::default();
        for g in &self.groups {
            acc.merge(&g.chunks[idx].stats);
        }
        Ok(acc)
    }

    /// Decode one row group into a batch.
    pub fn read_row_group(&self, group: usize) -> ColumnarResult<RecordBatch> {
        let g = self
            .groups
            .get(group)
            .ok_or_else(|| ColumnarError::corrupt(format!("row group {group} out of range")))?;
        let mut columns = Vec::with_capacity(self.schema.len());
        for (field, chunk) in self.schema.fields().iter().zip(&g.chunks) {
            columns.push(self.decode_chunk(field, chunk, g.rows as usize)?);
        }
        RecordBatch::new(self.schema.clone(), columns)
    }

    /// Decode the entire file into one batch.
    pub fn read_all(&self) -> ColumnarResult<RecordBatch> {
        if self.groups.is_empty() {
            return Ok(RecordBatch::empty(self.schema.clone()));
        }
        let batches = (0..self.groups.len())
            .map(|i| self.read_row_group(i))
            .collect::<ColumnarResult<Vec<_>>>()?;
        RecordBatch::concat(&batches)
    }

    fn decode_chunk(
        &self,
        field: &Field,
        chunk: &ColumnChunkMeta,
        rows: usize,
    ) -> ColumnarResult<ColumnVector> {
        let start = chunk.offset as usize;
        let end = start + chunk.length as usize;
        if end > self.data.len() {
            return Err(ColumnarError::corrupt("chunk extends past end of file"));
        }
        decode_chunk_payload(field, chunk.encoding, self.data.slice(start..end), rows)
    }
}

/// Decode a column chunk payload (validity prefix + encoded values).
fn decode_chunk_payload(
    field: &Field,
    encoding: u8,
    mut buf: Bytes,
    rows: usize,
) -> ColumnarResult<ColumnVector> {
    if !buf.has_remaining() {
        return Err(ColumnarError::corrupt("empty chunk"));
    }
    let validity = match buf.get_u8() {
        0 => None,
        1 => {
            let len = get_uvarint(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(ColumnarError::corrupt("truncated validity bitmap"));
            }
            Some(Bitmap::from_bytes(buf.split_to(len))?)
        }
        other => return Err(ColumnarError::corrupt(format!("bad validity flag {other}"))),
    };
    let enc = Encoding::from_u8(encoding)?;
    let vector = match (field.data_type, enc) {
        (DataType::Int64, Encoding::DeltaI64) => ColumnVector::Int64 {
            values: encoding::decode_delta_i64(&mut buf)?,
            validity,
        },
        (DataType::Int64, Encoding::RleI64) => ColumnVector::Int64 {
            values: encoding::decode_rle_i64(&mut buf)?,
            validity,
        },
        (DataType::Date32, Encoding::DeltaI64) => ColumnVector::Date32 {
            values: encoding::decode_delta_i64(&mut buf)?
                .into_iter()
                .map(|v| v as i32)
                .collect(),
            validity,
        },
        (DataType::Date32, Encoding::RleI64) => ColumnVector::Date32 {
            values: encoding::decode_rle_i64(&mut buf)?
                .into_iter()
                .map(|v| v as i32)
                .collect(),
            validity,
        },
        (DataType::Float64, Encoding::PlainF64) => ColumnVector::Float64 {
            values: encoding::decode_plain_f64(&mut buf)?,
            validity,
        },
        (DataType::Utf8, Encoding::PlainStr) => ColumnVector::Utf8 {
            values: encoding::decode_plain_str(&mut buf)?,
            validity,
        },
        (DataType::Utf8, Encoding::DictStr) => ColumnVector::Utf8 {
            values: encoding::decode_dict_str(&mut buf)?,
            validity,
        },
        (DataType::Bool, Encoding::PackedBool) => ColumnVector::Bool {
            values: encoding::decode_bool(&mut buf)?,
            validity,
        },
        (dt, enc) => {
            return Err(ColumnarError::corrupt(format!(
                "encoding {enc:?} invalid for type {dt}"
            )))
        }
    };
    if vector.len() != rows {
        return Err(ColumnarError::LengthMismatch {
            expected: rows,
            found: vector.len(),
        });
    }
    Ok(vector)
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
        assert_eq!(file.num_rows(), 100);
        assert_eq!(file.row_groups().len(), 1);
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
        assert_eq!(file.row_groups().len(), 8); // ceil(1000/128)
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
        assert_eq!(file.num_rows(), 0);
        assert_eq!(file.read_all().unwrap().num_rows(), 0);
    }

    #[test]
    fn stats_survive_round_trip() {
        let batch = test_batch(50);
        let bytes = ColumnarWriter::encode_file(&batch, WriterOptions::default()).unwrap();
        let file = ColumnarFile::parse(bytes).unwrap();
        let id_stats = file.column_stats("id").unwrap();
        assert_eq!(id_stats.min, Some(Value::Int(0)));
        assert_eq!(id_stats.max, Some(Value::Int(49)));
        assert_eq!(id_stats.row_count, 50);
        let flag_stats = file.column_stats("flag").unwrap();
        assert_eq!(flag_stats.null_count, 8); // i % 7 == 0 for i in 0..50
    }

    #[test]
    fn multi_batch_write() {
        let mut w = ColumnarWriter::new(test_schema(), WriterOptions::default());
        w.write_batch(&test_batch(30)).unwrap();
        w.write_batch(&test_batch(20)).unwrap();
        let file = ColumnarFile::parse(w.finish().unwrap()).unwrap();
        assert_eq!(file.num_rows(), 50);
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
