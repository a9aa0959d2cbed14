//! Wire format of the durable commit log and, through
//! [`encode_payload_into`] / [`decode_payloads`], of the catalog checkpoint
//! blob, whose [`CheckpointFrame`]s carry catalog rows in the log's own
//! `(CatalogKey, Option<CatalogValue>)` form, front-coded.
//!
//! Each sequencer batch serializes to one self-delimiting *frame*:
//!
//! ```text
//! +-------+----------+-----------+--------------------+
//! | magic | len: u32 | crc32: u32| payload (len B)    |
//! | PWAL  |   LE     |    LE     | binary `WalBatch`  |
//! +-------+----------+-----------+--------------------+
//! ```
//!
//! The payload is one record in the engine's binary codec
//! ([`polaris_lst::codec`]): a `WalBatch` is `first_ts`, then its commits,
//! each `txn`, `commit_ts` and its writes as `(CatalogKey, Option<CatalogValue>)`
//! pairs, every key and value a tag followed by its fields. The
//! [`Codec`] impls at the end of this module are the whole layout.
//!
//! The CRC covers the payload only; magic + length make frames
//! self-delimiting so a segment blob is simply frames concatenated in
//! append order. [`decode_frames`] walks a segment front to back and
//! stops at the first frame that is incomplete, mis-tagged, corrupt or
//! unparsable — the **torn-tail rule**: everything before the tear is
//! intact (its CRC proves it), everything from the tear on was never
//! acknowledged and is discarded. Because the commit protocol calls the
//! log hook *before* publishing a timestamp, a torn frame can only
//! correspond to a commit whose caller never saw success.
//!
//! The payload is the full effect of every batch member — buffered writes
//! plus the extra (manifest-row) writes computed at the commit point — so
//! recovery folds a commit into the catalog image verbatim
//! ([`CatalogImage::apply`](crate::CatalogImage::apply), as it folds a
//! checkpoint frame) without re-running any engine logic.

use crate::{
    CatalogKey, CatalogValue, CheckpointRow, CommitLogRecord, ManifestRow, TableId, TableMeta,
    TxnId,
};
use polaris_lst::codec::{
    decode_all, put_i64, put_str, put_str_after, put_u64, Codec, DecodeResult, Reader,
};
use polaris_lst::SequenceId;

/// Frame tag: "PWAL" (Polaris Write-Ahead Log).
pub const WAL_MAGIC: [u8; 4] = *b"PWAL";

/// Bytes of frame header before the payload (magic + len + crc).
pub const WAL_HEADER_LEN: usize = 12;

/// One logged commit: a batch member's complete, replayable effect.
#[derive(Debug, Clone, PartialEq)]
pub struct WalCommit {
    /// The committing transaction's durable id.
    pub txn: u64,
    /// The commit timestamp (== manifest sequence number).
    pub commit_ts: u64,
    /// Every write installed at `commit_ts`: buffered writes first, then
    /// the commit-point extras. `None` values are tombstones.
    pub writes: Vec<(CatalogKey, Option<CatalogValue>)>,
}

/// One logged sequencer batch — the unit of durability. Members commit at
/// the dense run `first_ts .. first_ts + commits.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalBatch {
    /// Timestamp of the batch's first member.
    pub first_ts: u64,
    /// Members, in commit-timestamp order.
    pub commits: Vec<WalCommit>,
}

impl WalBatch {
    /// Capture a sequencer batch from the commit-log hook's argument.
    pub fn from_records(records: &[CommitLogRecord<CatalogKey, CatalogValue>]) -> WalBatch {
        WalBatch {
            first_ts: records.first().map_or(0, |r| r.commit_ts.0),
            commits: records
                .iter()
                .map(|r| WalCommit {
                    txn: r.txn.0,
                    commit_ts: r.commit_ts.0,
                    writes: r
                        .writes
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .chain(r.extra.iter().cloned())
                        .collect(),
                })
                .collect(),
        }
    }
}

/// What [`decode_frames`] found at the end of a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// The segment ends exactly at a frame boundary.
    Clean,
    /// The segment tears at byte `offset`: the bytes from there on are not
    /// a complete, well-tagged, checksummed, parsable frame. They are
    /// discarded under the torn-tail rule.
    Torn {
        /// Byte offset of the tear within the segment.
        offset: usize,
        /// Why the tail was rejected (diagnostics only).
        detail: String,
    },
}

/// Slicing-by-eight lookup tables for the reflected IEEE 802.3 polynomial,
/// generated at compile time: `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight input bytes fold in with eight
/// independent probes instead of a chain of eight dependent ones. A
/// checkpoint base is one frame of a few hundred kilobytes whose checksum
/// recovery pays before it can parse a row.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Byte-identical
/// to the original bit-serial loop — existing segments keep decoding.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Serialize `value` as one framed record (magic + length + CRC + binary
/// payload) into a caller-owned buffer, preserving the buffer's capacity
/// across calls. The buffer is cleared first; on error it is left cleared
/// and nothing is appended downstream.
///
/// This is the framing the commit log and the catalog checkpoint blob
/// share: any blob of such frames obeys the torn-tail rule of
/// [`decode_payloads`]. A payload too long for the length field is routed
/// back as an error (the sequencer turns it into a `CommitLogFailure`
/// abort) rather than panicking inside the sequencer section.
pub fn encode_payload_into<T: Codec>(value: &T, frame: &mut Vec<u8>) -> Result<(), String> {
    frame.clear();
    frame.extend_from_slice(&WAL_MAGIC);
    frame.extend_from_slice(&[0u8; 8]); // len + crc, patched once the payload is written
    value.encode(frame);
    let payload_len = frame.len() - WAL_HEADER_LEN;
    let Ok(len) = u32::try_from(payload_len) else {
        frame.clear();
        return Err(format!("frame payload of {payload_len} bytes exceeds u32"));
    };
    let crc = crc32(&frame[WAL_HEADER_LEN..]);
    frame[4..8].copy_from_slice(&len.to_le_bytes());
    frame[8..12].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// [`encode_payload_into`] for one commit-log batch.
pub fn encode_frame_into(batch: &WalBatch, frame: &mut Vec<u8>) -> Result<(), String> {
    encode_payload_into(batch, frame)
}

/// Serialize one batch as a framed record, ready to append to a segment.
pub fn encode_frame(batch: &WalBatch) -> Result<Vec<u8>, String> {
    let mut frame = Vec::new();
    encode_frame_into(batch, &mut frame)?;
    Ok(frame)
}

/// Decode a blob of frames: the payload of every complete frame in order,
/// plus the tail status. Never fails — corruption is data, not an error;
/// the torn-tail rule turns it into a truncation point.
pub fn decode_payloads<T: Codec>(blob: &[u8]) -> (Vec<T>, WalTail) {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    let torn = |offset, detail| WalTail::Torn { offset, detail };
    while offset < blob.len() {
        let rest = &blob[offset..];
        if rest.len() < WAL_HEADER_LEN {
            let detail = format!("{} trailing bytes, shorter than a frame header", rest.len());
            return (payloads, torn(offset, detail));
        }
        if rest[..4] != WAL_MAGIC {
            return (payloads, torn(offset, "bad frame magic".to_owned()));
        }
        let len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]) as usize;
        let expect_crc = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]);
        let Some(payload) = rest[WAL_HEADER_LEN..].get(..len) else {
            let detail = format!(
                "frame claims {len} payload bytes, only {} present",
                rest.len() - WAL_HEADER_LEN
            );
            return (payloads, torn(offset, detail));
        };
        if crc32(payload) != expect_crc {
            return (
                payloads,
                torn(offset, "payload checksum mismatch".to_owned()),
            );
        }
        match decode_all::<T>(payload) {
            Ok(value) => payloads.push(value),
            Err(e) => return (payloads, torn(offset, format!("unparsable payload: {e}"))),
        }
        offset += WAL_HEADER_LEN + len;
    }
    (payloads, WalTail::Clean)
}

/// [`decode_payloads`] for a commit-log segment.
pub fn decode_frames(segment: &[u8]) -> (Vec<WalBatch>, WalTail) {
    decode_payloads(segment)
}

// ---------------------------------------------------------------------
// Payload layouts: fields in declaration order, ids as varints, variants
// as a tag (their position in the enum) followed by their fields.
// ---------------------------------------------------------------------

impl Codec for WalBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.first_ts);
        self.commits.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(WalBatch {
            first_ts: r.u64()?,
            commits: Vec::decode(r)?,
        })
    }
}

impl Codec for WalCommit {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.txn);
        put_u64(out, self.commit_ts);
        self.writes.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(WalCommit {
            txn: r.u64()?,
            commit_ts: r.u64()?,
            writes: Vec::decode(r)?,
        })
    }
}

/// How a row's fields are written: whole in a log record; in a row list
/// (an image or a delta) front-coded — each string against the string
/// written before it, each id as its difference from the same id of the
/// row before — for consecutive rows are mostly one table's manifest rows,
/// whose paths and ids differ only a little. (Cluster keys, `WriteSets`
/// files and counts, which no image row holds, are always whole.)
#[derive(Default)]
struct Fields {
    front_coded: bool,
    last: String,
    ids: [u64; 3],
}

impl Fields {
    /// The ids front-coded: table, sequence, transaction.
    const TABLE: usize = 0;
    const SEQ: usize = 1;
    const TXN: usize = 2;

    fn put(&mut self, out: &mut Vec<u8>, s: &str) {
        if !self.front_coded {
            return put_str(out, s);
        }
        put_str_after(out, &self.last, s);
        self.last.clear();
        self.last.push_str(s);
    }

    fn get(&mut self, r: &mut Reader<'_>) -> DecodeResult<String> {
        if !self.front_coded {
            return String::decode(r);
        }
        let s = r.str_after(&self.last)?;
        self.last.clone_from(&s);
        Ok(s)
    }

    fn put_id(&mut self, out: &mut Vec<u8>, id: usize, n: u64) {
        if !self.front_coded {
            return put_u64(out, n);
        }
        let last = &mut self.ids[id];
        put_i64(out, n.wrapping_sub(*last) as i64);
        *last = n;
    }

    fn get_id(&mut self, r: &mut Reader<'_>, id: usize) -> DecodeResult<u64> {
        if !self.front_coded {
            return r.u64();
        }
        let last = &mut self.ids[id];
        *last = last.wrapping_add(r.i64()? as u64);
        Ok(*last)
    }
}

fn key_tag(key: &CatalogKey) -> u64 {
    match key {
        CatalogKey::TableName(_) => 0,
        CatalogKey::Table(_) => 1,
        CatalogKey::Manifest(..) => 2,
        CatalogKey::WriteSet(..) => 3,
        CatalogKey::Checkpoint(..) => 4,
    }
}

fn put_key_fields(out: &mut Vec<u8>, key: &CatalogKey, f: &mut Fields) {
    match key {
        CatalogKey::TableName(name) => f.put(out, name),
        CatalogKey::Table(id) => f.put_id(out, Fields::TABLE, id.0),
        CatalogKey::Manifest(id, seq) | CatalogKey::Checkpoint(id, seq) => {
            f.put_id(out, Fields::TABLE, id.0);
            f.put_id(out, Fields::SEQ, seq.0);
        }
        CatalogKey::WriteSet(id, file) => {
            f.put_id(out, Fields::TABLE, id.0);
            file.encode(out);
        }
    }
}

fn get_key_fields(r: &mut Reader<'_>, tag: u64, f: &mut Fields) -> DecodeResult<CatalogKey> {
    Ok(match tag {
        0 => CatalogKey::TableName(f.get(r)?),
        1 => CatalogKey::Table(TableId(f.get_id(r, Fields::TABLE)?)),
        2 => CatalogKey::Manifest(
            TableId(f.get_id(r, Fields::TABLE)?),
            SequenceId(f.get_id(r, Fields::SEQ)?),
        ),
        3 => CatalogKey::WriteSet(TableId(f.get_id(r, Fields::TABLE)?), Option::decode(r)?),
        _ => CatalogKey::Checkpoint(
            TableId(f.get_id(r, Fields::TABLE)?),
            SequenceId(f.get_id(r, Fields::SEQ)?),
        ),
    })
}

fn value_tag(value: &CatalogValue) -> u64 {
    match value {
        CatalogValue::Id(_) => 0,
        CatalogValue::Meta(_) => 1,
        CatalogValue::ManifestRow(_) => 2,
        CatalogValue::Updated(_) => 3,
        CatalogValue::CheckpointRow(_) => 4,
    }
}

fn put_value_fields(out: &mut Vec<u8>, value: &CatalogValue, f: &mut Fields) {
    match value {
        CatalogValue::Id(id) => f.put_id(out, Fields::TABLE, id.0),
        CatalogValue::Meta(meta) => {
            f.put_id(out, Fields::TABLE, meta.id.0);
            f.put(out, &meta.name);
            f.put(out, &meta.schema_json);
            f.put(out, &meta.data_root);
            meta.cluster_by.encode(out);
        }
        CatalogValue::ManifestRow(row) => {
            f.put(out, &row.manifest_file);
            f.put_id(out, Fields::TXN, row.txn_id.0);
        }
        CatalogValue::Updated(n) => put_u64(out, *n),
        CatalogValue::CheckpointRow(row) => f.put(out, &row.path),
    }
}

fn get_value_fields(r: &mut Reader<'_>, tag: u64, f: &mut Fields) -> DecodeResult<CatalogValue> {
    Ok(match tag {
        0 => CatalogValue::Id(TableId(f.get_id(r, Fields::TABLE)?)),
        // Fields evaluate in the order they are written.
        1 => CatalogValue::Meta(Box::new(TableMeta {
            id: TableId(f.get_id(r, Fields::TABLE)?),
            name: f.get(r)?,
            schema_json: f.get(r)?,
            data_root: f.get(r)?,
            cluster_by: Vec::decode(r)?,
        })),
        2 => CatalogValue::ManifestRow(ManifestRow {
            manifest_file: f.get(r)?,
            txn_id: TxnId(f.get_id(r, Fields::TXN)?),
        }),
        3 => CatalogValue::Updated(r.u64()?),
        _ => CatalogValue::CheckpointRow(CheckpointRow { path: f.get(r)? }),
    })
}

impl Codec for CatalogKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, key_tag(self));
        put_key_fields(out, self, &mut Fields::default())
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let tag = r.tag(5)?;
        get_key_fields(r, tag, &mut Fields::default())
    }
}

impl Codec for CatalogValue {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, value_tag(self));
        put_value_fields(out, self, &mut Fields::default())
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let tag = r.tag(5)?;
        get_value_fields(r, tag, &mut Fields::default())
    }
}

/// One frame of a catalog checkpoint blob: the image rows written in
/// `(previous frame's clock, clock]`, in the log's own `(key, value or
/// none)` form. A blob's first frame, its base, holds the whole catalog, as
/// written since the empty one; every later frame, a delta, has a higher
/// clock.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFrame {
    /// Commit clock the frame brings the catalog to.
    pub clock: u64,
    /// The rows written, `None` where a row was deleted.
    pub writes: Vec<(CatalogKey, Option<CatalogValue>)>,
}

/// The clock, a count, then per row one tag — `6 × key variant + value
/// variant`, value variant 5 for a deleted row — and the key's and the
/// value's fields, front-coded.
impl Codec for CheckpointFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.clock);
        put_u64(out, self.writes.len() as u64);
        let mut f = Fields {
            front_coded: true,
            ..Fields::default()
        };
        for (key, value) in &self.writes {
            put_u64(out, 6 * key_tag(key) + value.as_ref().map_or(5, value_tag));
            put_key_fields(out, key, &mut f);
            if let Some(value) = value {
                put_value_fields(out, value, &mut f);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let clock = r.u64()?;
        let n = r.count()?;
        let mut writes = Vec::with_capacity(n);
        let mut f = Fields {
            front_coded: true,
            ..Fields::default()
        };
        for _ in 0..n {
            let tag = r.tag(30)?;
            let key = get_key_fields(r, tag / 6, &mut f)?;
            let value = match tag % 6 {
                5 => None,
                tag => Some(get_value_fields(r, tag, &mut f)?),
            };
            writes.push((key, value));
        }
        Ok(CheckpointFrame { clock, writes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TableId, TxnId};
    use polaris_lst::SequenceId;

    fn sample(first_ts: u64) -> WalBatch {
        WalBatch {
            first_ts,
            commits: vec![WalCommit {
                txn: 7,
                commit_ts: first_ts,
                writes: vec![
                    (
                        CatalogKey::TableName("t".into()),
                        Some(CatalogValue::Id(TableId(1001))),
                    ),
                    (
                        CatalogKey::Manifest(TableId(1001), SequenceId(first_ts)),
                        Some(CatalogValue::ManifestRow(crate::ManifestRow {
                            manifest_file: polaris_lst::manifest_path("lake/t", 7, 1001),
                            txn_id: TxnId(7),
                        })),
                    ),
                    (CatalogKey::WriteSet(TableId(1001), None), None),
                ],
            }],
        }
    }

    #[test]
    fn roundtrip_single_frame() {
        let batch = sample(1);
        let frame = encode_frame(&batch).expect("encode");
        let (decoded, tail) = decode_frames(&frame);
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded, vec![batch]);
    }

    #[test]
    fn roundtrip_concatenated_frames() {
        let mut segment = Vec::new();
        for ts in 1..=5 {
            segment.extend_from_slice(&encode_frame(&sample(ts)).expect("encode"));
        }
        let (decoded, tail) = decode_frames(&segment);
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded.len(), 5);
        assert_eq!(decoded[4].first_ts, 5);
    }

    /// Every key and value variant plus a tombstone, pinned byte for byte
    /// (header, checksum and payload): a change to this layout breaks logs
    /// already in a store, so it must fail here first.
    #[test]
    fn golden_bytes() {
        let table = TableId(1001);
        let meta = TableMeta {
            id: table,
            name: "t".into(),
            schema_json: "[]".into(),
            data_root: "lake/t".into(),
            cluster_by: vec!["k".into()],
        };
        let batch = WalBatch {
            first_ts: 5,
            commits: vec![WalCommit {
                txn: 9,
                commit_ts: 5,
                writes: vec![
                    (
                        CatalogKey::TableName("t".into()),
                        Some(CatalogValue::Id(table)),
                    ),
                    (
                        CatalogKey::Table(table),
                        Some(CatalogValue::Meta(Box::new(meta))),
                    ),
                    (
                        CatalogKey::Manifest(table, SequenceId(5)),
                        Some(CatalogValue::ManifestRow(crate::ManifestRow {
                            manifest_file: "lake/t/_log/txn-9-1001.mf".into(),
                            txn_id: TxnId(9),
                        })),
                    ),
                    (
                        CatalogKey::WriteSet(table, Some("f".into())),
                        Some(CatalogValue::Updated(2)),
                    ),
                    (CatalogKey::WriteSet(table, None), None),
                    (
                        CatalogKey::Checkpoint(table, SequenceId(4)),
                        Some(CatalogValue::CheckpointRow(crate::CheckpointRow {
                            path: "c".into(),
                        })),
                    ),
                ],
            }],
        };
        let frame = encode_frame(&batch).expect("encode");
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "5057414c590000004dd2261c",               // PWAL, 89 payload bytes, crc32
                "0501090506",     // first_ts 5; one commit: txn 9, ts 5, six writes
                "0001740100e907", // TableName "t" -> Id 1001
                "01e907",         // Table 1001 ->
                "0101e9070174025b5d066c616b652f7401016b", // Meta {1001, "t", "[]", "lake/t", ["k"]}
                "02e90705",       // Manifest (1001, 5) ->
                "0102196c616b652f742f5f6c6f672f74786e2d392d313030312e6d6609", // row, txn 9
                "03e907010166010302", // WriteSet (1001, "f") -> Updated 2
                "03e9070000",     // WriteSet (1001, none) -> tombstone
                "04e9070401040163", // Checkpoint (1001, 4) -> "c"
            )
        );
        assert_eq!(decode_frames(&frame), (vec![batch], WalTail::Clean));
    }

    #[test]
    fn truncation_at_every_byte_is_a_clean_tear() {
        // A segment cut anywhere keeps every fully contained frame and
        // reports a tear — never a panic, never a partial batch.
        let mut segment = Vec::new();
        let f1 = encode_frame(&sample(1)).expect("encode");
        segment.extend_from_slice(&f1);
        segment.extend_from_slice(&encode_frame(&sample(2)).expect("encode"));
        for cut in 0..segment.len() {
            let (decoded, tail) = decode_frames(&segment[..cut]);
            let whole_frames = if cut >= segment.len() {
                2
            } else if cut >= f1.len() {
                1
            } else {
                0
            };
            assert_eq!(decoded.len(), whole_frames, "cut at {cut}");
            if cut == 0 || cut == f1.len() {
                assert_eq!(tail, WalTail::Clean, "cut at {cut} is a frame boundary");
            } else {
                assert!(matches!(tail, WalTail::Torn { .. }), "cut at {cut}");
            }
        }
    }

    #[test]
    fn corrupt_payload_detected_by_crc() {
        let mut frame = encode_frame(&sample(1)).expect("encode");
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let (decoded, tail) = decode_frames(&frame);
        assert!(decoded.is_empty());
        assert!(
            matches!(tail, WalTail::Torn { ref detail, .. } if detail.contains("checksum")),
            "{tail:?}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(&sample(1)).expect("encode");
        frame[0] = b'X';
        let (decoded, tail) = decode_frames(&frame);
        assert!(decoded.is_empty());
        assert!(matches!(tail, WalTail::Torn { offset: 0, .. }));
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // A second published vector: 32 bytes of 0xFF.
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
        assert_eq!(crc32(b""), 0);
    }

    /// The original bit-serial implementation, kept as a golden reference:
    /// the table-driven version must stay byte-identical so existing
    /// segments keep decoding.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_bitwise_reference() {
        // Every single-byte input exercises every table entry.
        for b in 0u8..=255 {
            assert_eq!(crc32(&[b]), crc32_bitwise(&[b]), "byte {b:#04x}");
        }
        // Deterministic pseudo-random buffers of varied lengths.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in [0usize, 1, 7, 64, 300, 1024] {
            let buf: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {len}");
        }
        // And a real frame payload.
        let frame = encode_frame(&sample(9)).expect("encode");
        let payload = &frame[WAL_HEADER_LEN..];
        assert_eq!(crc32(payload), crc32_bitwise(payload));
    }

    #[test]
    fn encode_frame_into_reuses_buffer_and_matches_encode_frame() {
        let mut buf = Vec::new();
        for ts in 1..=4 {
            let batch = sample(ts);
            encode_frame_into(&batch, &mut buf).expect("encode");
            assert_eq!(buf, encode_frame(&batch).expect("encode"), "ts {ts}");
            let (decoded, tail) = decode_frames(&buf);
            assert_eq!(tail, WalTail::Clean);
            assert_eq!(decoded, vec![batch]);
        }
        // The buffer keeps its capacity across encodes — no regrowth once warm.
        let cap = buf.capacity();
        encode_frame_into(&sample(2), &mut buf).expect("encode");
        assert_eq!(buf.capacity(), cap);
    }
}
