//! The decoders that read bytes back from the store never panic, and every
//! encoder's output decodes to exactly what it encoded.
//!
//! Six decoders read what an earlier process (or a damaged store) left:
//! `Manifest::decode`, `Checkpoint::decode`, `wal::decode_frames`,
//! `recovery::fold_checkpoint`, the columnar data-file readers (whole, with
//! `ColumnarFile::parse` and `read_all`, and lazily, footer then chunk by
//! chunk) and `DeleteVector::from_bytes`. Each is fed random byte strings,
//! every prefix of a valid encoding, every single-bit flip of a valid
//! *unframed* payload (re-framed with a matching checksum: inside a frame
//! the CRC already rejects a flip, so only this reaches the payload
//! decoder), and valid records whose string or list length claims
//! `u32::MAX` or `u64::MAX`; a data file and a delete vector also get every
//! run of nine `0xFF` bytes. Every call must return — `Ok`, `Err` or a torn
//! tail.

use bytes::Bytes;
use polaris_catalog::wal::{self, WalBatch, WalCommit, WalTail, WAL_HEADER_LEN, WAL_MAGIC};
use polaris_catalog::{
    CatalogImage, CatalogKey, CatalogValue, CheckpointRow, ManifestRow, TableId, TableMeta, TxnId,
};
use polaris_columnar::{
    ColumnarError, ColumnarFile, ColumnarFooter, ColumnarWriter, DataType, DeleteVector, Field,
    RecordBatch, Schema, Value, WriterOptions,
};
use polaris_core::recovery::{encode_base_frame, fold_checkpoint, CHECKPOINT_PREFIX};
use polaris_core::{sto, EngineConfig, PolarisEngine};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_lst::codec::{decode_all, put_str, put_u64, Codec};
use polaris_lst::{
    Checkpoint, ColRange, DataFileEntry, Manifest, ManifestAction, RangeVal, SequenceId,
    TableSnapshot,
};
use polaris_store::{MemoryStore, ObjectStore};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Valid encodings to damage
// ---------------------------------------------------------------------

fn entry(path: &str, col_ranges: Vec<ColRange>) -> DataFileEntry {
    DataFileEntry {
        path: path.into(),
        rows: 3,
        bytes: 4096,
        distribution: 1,
        col_ranges,
    }
}

fn range(column: &str, min: RangeVal, max: RangeVal) -> ColRange {
    ColRange {
        column: column.into(),
        min,
        max,
    }
}

/// Every action and every `RangeVal` variant.
fn sample_manifest() -> Manifest {
    Manifest::from_actions(vec![
        ManifestAction::AddFile(entry(
            "lake/t/data/f1.pcf",
            vec![
                range("i", RangeVal::Int(i64::MIN), RangeVal::Int(i64::MAX)),
                range("f", RangeVal::Float(-0.0), RangeVal::Float(f64::NAN)),
                range(
                    "s",
                    RangeVal::Str(String::new()),
                    RangeVal::Str("zß".into()),
                ),
                range("b", RangeVal::Bool(false), RangeVal::Bool(true)),
                range("d", RangeVal::Date(i32::MIN), RangeVal::Date(i32::MAX)),
            ],
        )),
        ManifestAction::remove_file("lake/t/data/f0.pcf"),
        ManifestAction::add_dv("lake/t/data/f1.pcf", "lake/t/dv/f1.dv", 2),
        ManifestAction::remove_dv("lake/t/data/f1.pcf", "lake/t/dv/f1.dv"),
    ])
}

fn sample_checkpoint() -> Checkpoint {
    let m = Manifest::from_actions(vec![
        ManifestAction::AddFile(entry(
            "lake/t/data/a.pcf",
            vec![range("k", RangeVal::Int(1), RangeVal::Int(9))],
        )),
        ManifestAction::add_file("lake/t/data/b.pcf", 5, 50, 0),
        ManifestAction::add_dv("lake/t/data/b.pcf", "lake/t/dv/b.dv", 1),
    ]);
    let snap = TableSnapshot::from_manifests([(SequenceId(4), &m)]).unwrap();
    Checkpoint::from_snapshot(&snap)
}

fn sample_batch() -> WalBatch {
    let table = TableId(1001);
    WalBatch {
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
                    Some(CatalogValue::Meta(Box::new(TableMeta {
                        id: table,
                        name: "t".into(),
                        schema_json: "[]".into(),
                        data_root: "lake/t".into(),
                        cluster_by: vec!["k".into()],
                    }))),
                ),
                (
                    CatalogKey::Manifest(table, SequenceId(5)),
                    Some(CatalogValue::ManifestRow(ManifestRow {
                        manifest_file: polaris_lst::manifest_path("lake/t", 9, 1001),
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
                    Some(CatalogValue::CheckpointRow(CheckpointRow {
                        path: "c".into(),
                    })),
                ),
            ],
        }],
    }
}

/// A real checkpoint blob with a base and delta frames holding table
/// upserts, both kinds of rows and a drop.
fn sample_checkpoint_blob() -> Vec<u8> {
    let store = Arc::new(MemoryStore::new());
    let pool = Arc::new(ComputePool::with_topology(1, 1, 1));
    pool.add_nodes(WorkloadClass::System, 1, 1);
    let config = EngineConfig {
        commit_log_enabled: true,
        log_checkpoint_every: 1_000, // forced generations only
        ..EngineConfig::for_testing()
    };
    let dyn_store: Arc<dyn ObjectStore> = Arc::new(Arc::clone(&store));
    let engine = PolarisEngine::open(dyn_store, pool, config).unwrap();
    let writer = engine.commit_log_writer().unwrap();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (k BIGINT)").unwrap();
    // A base that outweighs the deltas, so they append to its blob.
    for k in 0..6 {
        s.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
    }
    writer.checkpoint(engine.catalog()).unwrap();
    s.execute("CREATE TABLE u (k BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    sto::checkpoint_table(&engine, "t").unwrap();
    writer.checkpoint(engine.catalog()).unwrap();
    s.execute("DROP TABLE u").unwrap();
    writer.checkpoint(engine.catalog()).unwrap();
    let newest = store.list(CHECKPOINT_PREFIX).unwrap().pop().unwrap();
    let blob = store.get(&newest.path).unwrap().to_vec();
    assert!(payloads(&blob).len() >= 3, "a base and two deltas");
    blob
}

/// A three-group data file holding every chunk encoding the writer picks:
/// delta and RLE integers, plain `f64` behind a validity bitmap, plain and
/// dictionary strings, packed bools and delta-coded dates.
fn sample_data_file() -> Bytes {
    let schema = Schema::new(vec![
        Field::new("delta", DataType::Int64),
        Field::new("rle", DataType::Int64),
        Field::nullable("f", DataType::Float64),
        Field::new("plain", DataType::Utf8),
        Field::new("dict", DataType::Utf8),
        Field::new("b", DataType::Bool),
        Field::new("d", DataType::Date32),
    ]);
    let rows: Vec<Vec<Value>> = (0..20)
        .map(|i| {
            vec![
                Value::Int(3 * i - 40),
                Value::Int(if i % 8 < 5 { 7 } else { -1 }),
                if i % 5 == 3 {
                    Value::Null
                } else {
                    Value::Float(i as f64 / 4.0)
                },
                Value::Str(format!("p{i}")),
                Value::Str(if i % 2 == 0 { "x" } else { "yé" }.into()),
                Value::Bool(i % 3 == 0),
                Value::Date(i as i32 * 10 - 20),
            ]
        })
        .collect();
    let batch = RecordBatch::from_rows(schema, &rows).unwrap();
    let options = WriterOptions {
        row_group_rows: 8,
        ..Default::default()
    };
    let file = ColumnarWriter::encode_file(&batch, options).unwrap();
    assert_eq!(read_data_file(&file), [true, true]);
    file
}

fn sample_delete_vector() -> Bytes {
    let mut dv = DeleteVector::new();
    for row in [0, 3, 64, 70] {
        dv.delete_row(row);
    }
    dv.to_bytes()
}

/// A data file written by hand: magic, `body`, `footer`, its length, magic.
fn pcf(body: &[u8], footer: &[u8]) -> Vec<u8> {
    [
        b"PCF1",
        body,
        footer,
        &(footer.len() as u32).to_le_bytes(),
        b"PCF1",
    ]
    .concat()
}

/// The footer of a one-column file (`dtype`, not nullable) with one group
/// of `rows` rows, its one chunk of `encoding` at `offset`, `length` long.
fn footer(dtype: u64, encoding: u64, rows: u64, offset: u64, length: u64) -> Vec<u8> {
    let mut out = varint(1);
    put_str(&mut out, "c");
    for field in [dtype, 0, 1, rows, offset, length, encoding, 0, rows, 0, 0] {
        put_u64(&mut out, field);
    }
    out
}

/// A one-column file holding `payload` as the one chunk of a group of
/// `rows` rows.
fn data_file(dtype: u64, encoding: u64, rows: u64, payload: &[u8]) -> Vec<u8> {
    let length = payload.len() as u64;
    pcf(payload, &footer(dtype, encoding, rows, 4, length))
}

// ---------------------------------------------------------------------
// Framing, by hand
// ---------------------------------------------------------------------

/// `payload` in a frame with a checksum that matches it.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = WAL_MAGIC.to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&wal::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The payloads of a blob of whole frames.
fn payloads(blob: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < blob.len() {
        let len = u32::from_le_bytes(blob[at + 4..at + 8].try_into().unwrap()) as usize;
        out.push(blob[at + WAL_HEADER_LEN..at + WAL_HEADER_LEN + len].to_vec());
        at += WAL_HEADER_LEN + len;
    }
    out
}

/// Every single-bit flip of `bytes`.
fn bit_flips(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..bytes.len() * 8).map(|bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    })
}

/// Run every decoder over `bytes`: each must return.
fn decode_everything(bytes: &[u8]) {
    let _ = Manifest::decode(bytes);
    let _ = Checkpoint::decode(bytes);
    let _ = wal::decode_frames(bytes);
    let _ = fold_checkpoint(bytes);
    let _ = read_data_file(bytes);
    let _ = DeleteVector::from_bytes(Bytes::copy_from_slice(bytes));
}

/// Read `bytes` as a data file both ways a scan does, and say whether each
/// read all of it: whole (`parse`, then `read_all`), and lazily.
fn read_data_file(bytes: &[u8]) -> [bool; 2] {
    let data = Bytes::copy_from_slice(bytes);
    let whole = ColumnarFile::parse(data.clone()).and_then(|f| f.read_all());
    [whole.is_ok(), read_lazily(&data).is_ok()]
}

/// The lazy reader: tail probe, footer, merged statistics, then each chunk
/// by its range, as a range read would fetch it.
fn read_lazily(data: &Bytes) -> Result<(), ColumnarError> {
    let len = data.len() as u64;
    let footer_len = ColumnarFooter::footer_len_from_tail(&data[data.len().saturating_sub(8)..])?;
    let start = len
        .checked_sub(footer_len + 8)
        .ok_or_else(|| ColumnarError::corrupt("footer longer than the file"))?;
    let footer = ColumnarFooter::parse_tail(data.slice(start as usize..), len)?;
    for field in footer.schema().fields() {
        footer.column_stats(&field.name)?;
    }
    for group in footer.row_groups() {
        for (field, chunk) in footer.schema().fields().iter().zip(&group.chunks) {
            // Parsing checked the range, so a store serves it as asked.
            assert!(chunk
                .offset
                .checked_add(chunk.length)
                .is_some_and(|end| end <= len));
            let payload = data.slice(chunk.offset as usize..(chunk.offset + chunk.length) as usize);
            footer.decode_chunk_payload(field, chunk, payload, group.rows as usize)?;
        }
    }
    Ok(())
}

fn varint(n: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, n);
    out
}

// ---------------------------------------------------------------------
// No panics
// ---------------------------------------------------------------------

#[test]
fn every_prefix_of_a_valid_encoding_returns() {
    let blobs = [
        sample_manifest().encode().to_vec(),
        sample_checkpoint().encode().to_vec(),
        wal::encode_frame(&sample_batch()).unwrap(),
        sample_checkpoint_blob(),
        sample_data_file().to_vec(),
        sample_delete_vector().to_vec(),
    ];
    for blob in &blobs {
        for cut in 0..=blob.len() {
            decode_everything(&blob[..cut]);
        }
    }
    // A cut manifest keeps no partial record, a cut checkpoint is refused,
    // a cut frame is a tear.
    let manifest = sample_manifest().encode();
    for cut in 1..manifest.len() {
        if let Ok(m) = Manifest::decode(&manifest[..cut]) {
            assert!(m.len() < sample_manifest().len(), "cut at {cut}");
        }
    }
    let checkpoint = sample_checkpoint().encode();
    for cut in 0..checkpoint.len() {
        assert!(
            Checkpoint::decode(&checkpoint[..cut]).is_err(),
            "cut at {cut}"
        );
    }
    let framed = wal::encode_frame(&sample_batch()).unwrap();
    for cut in 1..framed.len() {
        let (batches, tail) = wal::decode_frames(&framed[..cut]);
        assert!(batches.is_empty() && matches!(tail, WalTail::Torn { .. }));
    }
}

#[test]
fn every_bit_flip_of_a_valid_payload_returns() {
    for flipped in bit_flips(&sample_manifest().encode()) {
        let _ = Manifest::decode(&flipped);
    }
    for flipped in bit_flips(&sample_checkpoint().encode()) {
        let _ = Checkpoint::decode(&flipped);
    }
    let batch = wal::encode_frame(&sample_batch()).unwrap();
    for flipped in bit_flips(&batch[WAL_HEADER_LEN..]) {
        let _ = wal::decode_frames(&frame(&flipped));
    }
    for flipped in bit_flips(&sample_data_file()) {
        read_data_file(&flipped);
    }
    for flipped in bit_flips(&sample_delete_vector()) {
        let _ = DeleteVector::from_bytes(flipped.into());
    }
    // Each frame of a checkpoint blob in turn, the others left whole.
    let frames = payloads(&sample_checkpoint_blob());
    for (i, payload) in frames.iter().enumerate() {
        for flipped in bit_flips(payload) {
            let blob: Vec<u8> = frames
                .iter()
                .enumerate()
                .flat_map(|(j, p)| frame(if i == j { &flipped } else { p }))
                .collect();
            let _ = fold_checkpoint(&blob);
        }
    }
}

#[test]
fn lengths_claiming_u32_or_u64_max_are_refused() {
    for claim in [u64::from(u32::MAX), u64::MAX] {
        // A RemoveFile whose path claims `claim` bytes.
        let mut manifest = varint(1);
        manifest.extend(varint(claim));
        manifest.extend_from_slice(b"lake/t/f");
        assert!(Manifest::decode(&manifest).is_err());
        // An AddFile whose range list claims `claim` entries.
        let mut add = varint(0);
        put_str(&mut add, "lake/t/f");
        add.extend([3, 64, 1]);
        add.extend(varint(claim));
        add.extend([1, b'k', 0, 2, 0, 4]);
        assert!(Manifest::decode(&add).is_err());
        // A checkpoint claiming `claim` files.
        let mut checkpoint = varint(4);
        checkpoint.extend(varint(claim));
        checkpoint.extend_from_slice(&sample_checkpoint().encode()[2..]);
        assert!(Checkpoint::decode(&checkpoint).is_err());
        // A batch claiming `claim` commits, then one whose table name
        // claims `claim` bytes — framed with a good checksum.
        let mut commits = varint(5);
        commits.extend(varint(claim));
        commits.extend([9, 5, 0]);
        let (batches, tail) = wal::decode_frames(&frame(&commits));
        assert!(batches.is_empty() && matches!(tail, WalTail::Torn { offset: 0, .. }));
        let mut name = vec![5, 1, 9, 5, 1, 0];
        name.extend(varint(claim));
        name.extend([b't', 0]);
        let (batches, tail) = wal::decode_frames(&frame(&name));
        assert!(batches.is_empty() && matches!(tail, WalTail::Torn { offset: 0, .. }));
        // A base image claiming `claim` rows.
        let mut base = varint(0);
        base.extend(varint(7));
        base.extend(varint(claim));
        base.extend([0; 8]);
        assert_eq!(fold_checkpoint(&frame(&base)), None);
    }
}

/// Nine `0xFF` bytes are a varint of 63 set bits still asking for more:
/// laid over any stretch of a data file or a delete vector, a count, a
/// length, an offset or a tag turns huge.
#[test]
fn runs_of_ff_over_a_data_file_return() {
    for blob in [sample_data_file(), sample_delete_vector()] {
        for at in 0..=blob.len() - 9 {
            let mut damaged = blob.to_vec();
            damaged[at..at + 9].fill(0xFF);
            read_data_file(&damaged);
            let _ = DeleteVector::from_bytes(damaged.into());
        }
    }
}

#[test]
fn data_file_claims_are_refused() {
    let refused = |file: Vec<u8>| assert_eq!(read_data_file(&file), [false, false]);
    // The one chunk of an Int64 column: all valid, one row, value 1.
    let one = [0, 1, 2];
    assert_eq!(read_data_file(&data_file(0, 0, 1, &one)), [true, true]);
    for claim in [u64::from(u32::MAX), 1 << 61, u64::MAX] {
        let with = |head: &[u8], tail: &[u8]| [head, &varint(claim), tail].concat();
        // One-row chunks claiming `claim` values: Float64 (type 1,
        // encoding 2), plain strings, dictionary entries and dictionary
        // codes (type 2, encodings 3 and 4), bools (type 3, encoding 5).
        refused(data_file(1, 2, 1, &with(&[0], &[0; 8])));
        refused(data_file(2, 3, 1, &with(&[0], &[1, b'a'])));
        refused(data_file(2, 4, 1, &with(&[0], &[1, b'a', 1, 0])));
        refused(data_file(2, 4, 1, &with(&[0, 1, 1, b'a'], &[0])));
        refused(data_file(3, 5, 1, &with(&[0], &[1])));
        // A validity bitmap of `claim` bytes; an RLE chunk (type 0,
        // encoding 1) of two rows whose second run is `claim` long.
        refused(data_file(0, 0, 1, &with(&[1], &[0; 16])));
        refused(data_file(0, 1, 2, &with(&[0, 2, 14, 1, 14], &[])));
        // Three bytes of RLE for `claim` rows, in a group claiming as many:
        // no group may hold more than 2^20.
        refused(data_file(0, 1, claim, &with(&[0], &with(&[14], &[]))));
        // A footer claiming `claim` columns, `claim` groups, or a column
        // name of `claim` bytes; a chunk at offset `claim`.
        refused(pcf(&[], &with(&[], &[1, b'c', 0, 0, 0])));
        refused(pcf(&[], &with(&[0], &[])));
        refused(pcf(&[], &with(&[1], b"c\0\0\0")));
        refused(pcf(&one, &footer(0, 0, 1, claim, 3)));
    }
    // Lengths that wrapped an addition in an earlier reader: a name two
    // bytes short of 2^64, a chunk range that ends at 2^64.
    refused(pcf(
        &[],
        &[&[1][..], &varint(u64::MAX - 1), b"c\0\0\0"].concat(),
    ));
    refused(pcf(&one, &footer(0, 0, 1, u64::MAX - 2, 3)));
    // A validity bitmap of 64 rows, every one of them NULL, over a group
    // of one row.
    let mut bitmap = vec![1, 16];
    bitmap.extend(64u64.to_le_bytes());
    bitmap.extend(u64::MAX.to_le_bytes());
    refused(data_file(0, 0, 1, &[&bitmap[..], &one[1..]].concat()));
    // A group of 2^20 + 1 rows, its one run that long.
    let rows = (1 << 20) + 1;
    let run = [&[0][..], &varint(rows), &[14], &varint(rows)].concat();
    refused(data_file(0, 1, rows, &run));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Noise, noise behind a valid frame header, and noise split into the
    /// chunks and the footer of a data file.
    #[test]
    fn random_bytes_return(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        framed in any::<bool>(),
        split in 0usize..256,
    ) {
        decode_everything(&noise);
        if framed {
            decode_everything(&frame(&noise));
        }
        let (body, footer) = noise.split_at(split.min(noise.len()));
        read_data_file(&pcf(body, footer));
    }
}

// ---------------------------------------------------------------------
// Encode -> decode is the identity
// ---------------------------------------------------------------------

/// Paths and names: empty, ASCII and not.
fn text() -> impl Strategy<Value = String> {
    "[a-z0-9/._é日ß-]{0,12}"
}

fn range_val() -> impl Strategy<Value = RangeVal> {
    prop_oneof![
        any::<i64>().prop_map(RangeVal::Int),
        Just(RangeVal::Int(i64::MIN)),
        Just(RangeVal::Int(i64::MAX)),
        any::<u64>().prop_map(|bits| RangeVal::Float(f64::from_bits(bits))),
        Just(RangeVal::Float(-0.0)),
        Just(RangeVal::Float(f64::from_bits(0x7FF8_DEAD_BEEF_0001))), // a NaN payload
        text().prop_map(RangeVal::Str),
        any::<bool>().prop_map(RangeVal::Bool),
        any::<i32>().prop_map(RangeVal::Date),
    ]
}

fn data_file_entry() -> impl Strategy<Value = DataFileEntry> {
    (
        text(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        proptest::collection::vec((text(), range_val(), range_val()), 0..3),
    )
        .prop_map(|(path, rows, bytes, distribution, ranges)| DataFileEntry {
            path,
            rows,
            bytes,
            distribution,
            col_ranges: ranges
                .into_iter()
                .map(|(column, min, max)| ColRange { column, min, max })
                .collect(),
        })
}

fn action() -> impl Strategy<Value = ManifestAction> {
    prop_oneof![
        data_file_entry().prop_map(ManifestAction::AddFile),
        text().prop_map(ManifestAction::remove_file),
        (text(), text(), any::<u64>()).prop_map(|(f, dv, n)| ManifestAction::add_dv(f, dv, n)),
        (text(), text()).prop_map(|(f, dv)| ManifestAction::remove_dv(f, dv)),
    ]
}

fn key() -> impl Strategy<Value = CatalogKey> {
    prop_oneof![
        text().prop_map(CatalogKey::TableName),
        any::<u64>().prop_map(|id| CatalogKey::Table(TableId(id))),
        (any::<u64>(), any::<u64>())
            .prop_map(|(id, seq)| CatalogKey::Manifest(TableId(id), SequenceId(seq))),
        (any::<u64>(), proptest::option::of(text()))
            .prop_map(|(id, file)| CatalogKey::WriteSet(TableId(id), file)),
        (any::<u64>(), any::<u64>())
            .prop_map(|(id, seq)| CatalogKey::Checkpoint(TableId(id), SequenceId(seq))),
    ]
}

fn value() -> impl Strategy<Value = CatalogValue> {
    prop_oneof![
        any::<u64>().prop_map(|id| CatalogValue::Id(TableId(id))),
        (
            any::<u64>(),
            text(),
            text(),
            proptest::collection::vec(text(), 0..3)
        )
            .prop_map(
                |(id, name, data_root, cluster_by)| CatalogValue::Meta(Box::new(TableMeta {
                    id: TableId(id),
                    schema_json: format!("[{name}]"),
                    name,
                    data_root,
                    cluster_by,
                }))
            ),
        (text(), any::<u64>()).prop_map(|(manifest_file, txn)| CatalogValue::ManifestRow(
            ManifestRow {
                manifest_file,
                txn_id: TxnId(txn),
            }
        )),
        any::<u64>().prop_map(CatalogValue::Updated),
        text().prop_map(|path| CatalogValue::CheckpointRow(CheckpointRow { path })),
    ]
}

fn encoded(actions: &[ManifestAction]) -> Vec<u8> {
    let mut out = Vec::new();
    Manifest::encode_actions(actions, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding a manifest and encoding it again gives back the same bytes
    /// (so every float keeps its bits), however the actions were split
    /// into separately written blocks.
    #[test]
    fn manifests_round_trip_across_any_block_split(
        actions in proptest::collection::vec(action(), 0..8),
        cuts in proptest::collection::vec(0usize..8, 0..4),
    ) {
        let whole = encoded(&actions);
        let decoded = Manifest::decode(&whole).unwrap();
        prop_assert_eq!(decoded.len(), actions.len());
        prop_assert_eq!(encoded(&decoded.actions), whole.clone());
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(actions.len())).collect();
        cuts.sort_unstable();
        let mut blocks = Vec::new();
        let mut start = 0;
        for end in cuts.into_iter().chain([actions.len()]) {
            blocks.extend(encoded(&actions[start..end]));
            start = end;
        }
        let joined = Manifest::decode(&blocks).unwrap();
        prop_assert_eq!(encoded(&joined.actions), whole);
    }

    #[test]
    fn checkpoints_round_trip(
        entries in proptest::collection::vec((data_file_entry(), any::<bool>()), 0..6),
        upto in 1u64..1_000_000,
    ) {
        // Distinct paths: a snapshot holds each file once.
        let mut actions = Vec::new();
        for (i, (mut entry, dv)) in entries.into_iter().enumerate() {
            entry.path = format!("{i}/{}", entry.path);
            if dv {
                actions.push(ManifestAction::add_dv(entry.path.clone(), "dv/é", 1));
            }
            actions.insert(0, ManifestAction::AddFile(entry));
        }
        let m = Manifest::from_actions(actions);
        let snap = TableSnapshot::from_manifests([(SequenceId(upto), &m)]).unwrap();
        let bytes = Checkpoint::from_snapshot(&snap).encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.upto, SequenceId(upto));
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn wal_batches_round_trip(
        first_ts in any::<u64>(),
        commits in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec((key(), proptest::option::of(value())), 0..5)),
            0..4,
        ),
    ) {
        let batch = WalBatch {
            first_ts,
            commits: commits
                .into_iter()
                .enumerate()
                .map(|(i, (txn, writes))| WalCommit {
                    txn,
                    commit_ts: first_ts.wrapping_add(i as u64),
                    writes,
                })
                .collect(),
        };
        let framed = wal::encode_frame(&batch).unwrap();
        prop_assert_eq!(wal::decode_frames(&framed), (vec![batch], WalTail::Clean));
    }

    #[test]
    fn base_frames_fold_to_their_image(
        clock in any::<u64>(),
        rows in proptest::collection::vec((key(), value()), 0..8),
    ) {
        let image = CatalogImage { clock, rows: rows.into_iter().collect() };
        let mut framed = Vec::new();
        encode_base_frame(image.clone(), &mut framed).unwrap();
        prop_assert_eq!(fold_checkpoint(&framed), Some(image));
    }

    #[test]
    fn checkpoint_frames_round_trip(
        clock in any::<u64>(),
        writes in proptest::collection::vec((key(), proptest::option::of(value())), 0..8),
    ) {
        let frame = wal::CheckpointFrame { clock, writes };
        let mut bytes = Vec::new();
        frame.encode(&mut bytes);
        prop_assert_eq!(decode_all::<wal::CheckpointFrame>(&bytes), Ok(frame));
    }
}
