//! Wire format of the durable commit log (and, through
//! [`encode_payload_into`] / [`decode_payloads`], of the catalog checkpoint
//! blob, which frames its own payload type the same way).
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
//! recovery folds a commit into the catalog image verbatim without
//! re-running any engine logic.

use crate::{
    CatalogImage, CatalogKey, CatalogValue, CheckpointRow, CommitLogRecord, ManifestRow, TableId,
    TableImage, TableMeta, TxnId,
};
use polaris_lst::codec::{
    decode_all, put_str, put_str_after, put_u64, Codec, DecodeResult, Reader,
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

impl Codec for CatalogKey {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CatalogKey::TableName(name) => {
                put_u64(out, 0);
                put_str(out, name);
            }
            CatalogKey::Table(id) => {
                put_u64(out, 1);
                put_u64(out, id.0);
            }
            CatalogKey::Manifest(id, seq) => {
                put_u64(out, 2);
                put_u64(out, id.0);
                put_u64(out, seq.0);
            }
            CatalogKey::WriteSet(id, file) => {
                put_u64(out, 3);
                put_u64(out, id.0);
                file.encode(out);
            }
            CatalogKey::Checkpoint(id, seq) => {
                put_u64(out, 4);
                put_u64(out, id.0);
                put_u64(out, seq.0);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(match r.tag(5)? {
            0 => CatalogKey::TableName(String::decode(r)?),
            1 => CatalogKey::Table(TableId(r.u64()?)),
            2 => CatalogKey::Manifest(TableId(r.u64()?), SequenceId(r.u64()?)),
            3 => CatalogKey::WriteSet(TableId(r.u64()?), Option::decode(r)?),
            _ => CatalogKey::Checkpoint(TableId(r.u64()?), SequenceId(r.u64()?)),
        })
    }
}

impl Codec for CatalogValue {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CatalogValue::Id(id) => {
                put_u64(out, 0);
                put_u64(out, id.0);
            }
            CatalogValue::Meta(meta) => {
                put_u64(out, 1);
                meta.encode(out);
            }
            CatalogValue::ManifestRow(row) => {
                put_u64(out, 2);
                put_str(out, &row.manifest_file);
                put_u64(out, row.txn_id.0);
            }
            CatalogValue::Updated(n) => {
                put_u64(out, 3);
                put_u64(out, *n);
            }
            CatalogValue::CheckpointRow(row) => {
                put_u64(out, 4);
                put_str(out, &row.path);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(match r.tag(5)? {
            0 => CatalogValue::Id(TableId(r.u64()?)),
            1 => CatalogValue::Meta(TableMeta::decode(r)?),
            2 => CatalogValue::ManifestRow(ManifestRow {
                manifest_file: String::decode(r)?,
                txn_id: TxnId(r.u64()?),
            }),
            3 => CatalogValue::Updated(r.u64()?),
            _ => CatalogValue::CheckpointRow(CheckpointRow {
                path: String::decode(r)?,
            }),
        })
    }
}

impl Codec for TableMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id.0);
        put_str(out, &self.name);
        put_str(out, &self.schema_json);
        put_str(out, &self.data_root);
        self.cluster_by.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(TableMeta {
            id: TableId(r.u64()?),
            name: String::decode(r)?,
            schema_json: String::decode(r)?,
            data_root: String::decode(r)?,
            cluster_by: Vec::decode(r)?,
        })
    }
}

impl Codec for CatalogImage {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.clock);
        self.tables.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(CatalogImage {
            clock: r.u64()?,
            tables: Vec::decode(r)?,
        })
    }
}

impl Codec for TableImage {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        put_str(out, &self.name);
        put_str(out, &self.schema_json);
        put_str(out, &self.data_root);
        self.cluster_by.encode(out);
        put_manifest_rows(out, &self.manifests);
        self.checkpoints.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(TableImage {
            id: r.u64()?,
            name: String::decode(r)?,
            schema_json: String::decode(r)?,
            data_root: String::decode(r)?,
            cluster_by: Vec::decode(r)?,
            manifests: manifest_rows(r)?,
            checkpoints: Vec::decode(r)?,
        })
    }
}

/// A table's `(sequence, manifest file, txn id)` rows as a checkpoint image
/// carries them: a count, then per row the sequence, the path front-coded
/// against the previous row's (one table's manifest paths differ only in
/// their ids) and the transaction id.
pub fn put_manifest_rows(out: &mut Vec<u8>, rows: &[(u64, String, u64)]) {
    put_u64(out, rows.len() as u64);
    let mut prev = "";
    for (seq, path, txn) in rows {
        put_u64(out, *seq);
        put_str_after(out, prev, path);
        put_u64(out, *txn);
        prev = path;
    }
}

/// Read back what [`put_manifest_rows`] wrote.
pub fn manifest_rows(r: &mut Reader<'_>) -> DecodeResult<Vec<(u64, String, u64)>> {
    let n = r.count()?;
    let mut rows: Vec<(u64, String, u64)> = Vec::with_capacity(n);
    for _ in 0..n {
        let seq = r.u64()?;
        let path = r.str_after(rows.last().map_or("", |row| &row.1))?;
        rows.push((seq, path, r.u64()?));
    }
    Ok(rows)
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
                    (CatalogKey::Table(table), Some(CatalogValue::Meta(meta))),
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
