//! The decoders that read bytes back from the store never panic, and every
//! encoder's output decodes to exactly what it encoded.
//!
//! Four decoders read what an earlier process (or a damaged store) left:
//! `Manifest::decode`, `Checkpoint::decode`, `wal::decode_frames` and
//! `recovery::fold_checkpoint`. Each is fed random byte strings, every
//! prefix of a valid encoding, every single-bit flip of a valid *unframed*
//! payload (re-framed with a matching checksum: inside a frame the CRC
//! already rejects a flip, so only this reaches the payload decoder), and
//! valid records whose string or list length claims `u32::MAX` or
//! `u64::MAX`. Every call must return — `Ok`, `Err` or a torn tail.

use polaris_catalog::wal::{self, WalBatch, WalCommit, WalTail, WAL_HEADER_LEN, WAL_MAGIC};
use polaris_catalog::{
    CatalogImage, CatalogKey, CatalogValue, CheckpointRow, ManifestRow, TableId, TableImage,
    TableMeta, TxnId,
};
use polaris_core::recovery::{encode_base_frame, fold_checkpoint, CHECKPOINT_PREFIX};
use polaris_core::{sto, EngineConfig, PolarisEngine};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_lst::codec::{put_str, put_u64};
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
                    Some(CatalogValue::Meta(TableMeta {
                        id: table,
                        name: "t".into(),
                        schema_json: "[]".into(),
                        data_root: "lake/t".into(),
                        cluster_by: vec!["k".into()],
                    })),
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
        // A base image claiming `claim` tables.
        let mut base = varint(0);
        base.extend(varint(7));
        base.extend(varint(claim));
        base.extend([0; 8]);
        assert_eq!(fold_checkpoint(&frame(&base)), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Noise, and noise behind a valid frame header.
    #[test]
    fn random_bytes_return(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        framed in any::<bool>(),
    ) {
        decode_everything(&noise);
        if framed {
            decode_everything(&frame(&noise));
        }
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
                |(id, name, data_root, cluster_by)| CatalogValue::Meta(TableMeta {
                    id: TableId(id),
                    schema_json: format!("[{name}]"),
                    name,
                    data_root,
                    cluster_by,
                })
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
        tables in proptest::collection::vec(
            (any::<u64>(), text(), proptest::collection::vec((any::<u64>(), text(), any::<u64>()), 0..4)),
            0..4,
        ),
    ) {
        let image = CatalogImage {
            clock,
            tables: tables
                .into_iter()
                .map(|(id, name, manifests)| TableImage {
                    id,
                    schema_json: String::new(),
                    data_root: format!("lake/{name}"),
                    name,
                    cluster_by: Vec::new(),
                    checkpoints: manifests.iter().map(|(seq, p, _)| (*seq, p.clone())).collect(),
                    manifests,
                })
                .collect(),
        };
        let mut framed = Vec::new();
        encode_base_frame(image.clone(), &mut framed).unwrap();
        prop_assert_eq!(fold_checkpoint(&framed), Some(image));
    }
}
