//! Durable commit log and crash recovery.
//!
//! Data is durable by construction — every data file and manifest is in the
//! object store before commit — but the seed engine held the SQL FE catalog
//! (`Manifests`, commit clock, transaction-id allocator) only in memory.
//! This module closes that gap in the store's block-blob vocabulary:
//!
//! * **Log append** ([`CommitLogWriter::append`], the catalog's commit-log
//!   hook): each sequencer batch is serialized to a checksummed
//!   [`polaris_catalog::wal`] frame and appended to the current segment
//!   blob ([`segment_path`]) by the Block-Blob idiom the paper builds
//!   commits on — `stage_block` (invisible) then `commit_block_list` with
//!   the cumulative block list (atomic publish). The hook runs *inside* the
//!   sequencer section, after validation and before install: a batch whose
//!   append fails aborts wholesale without consuming timestamps, so
//!   **acknowledged implies durable** and the log never contains an aborted
//!   commit. A block staged by a failed append is never listed again —
//!   storage discards it, as it does an aborted transaction's manifest.
//! * **Checkpoints** ([`CommitLogWriter::checkpoint`]): the durable catalog
//!   image is one append-only block blob ([`checkpoint_path`]) of
//!   [`wal::CheckpointFrame`]s — catalog rows in the log's own framing and
//!   `(CatalogKey, Option<CatalogValue>)` form: a base, the whole
//!   [`CatalogImage`], then one delta per generation, the image rows the
//!   hook saw since the previous frame. A generation (every
//!   `log_checkpoint_every` appends) is a `stage_block` +
//!   `commit_block_list` of O(delta) bytes and exports nothing. A new blob
//!   starts from a full export, the one O(history) write left, when the
//!   deltas outweigh the base (doubling: amortised O(1) bytes per row,
//!   bounded block count, dropped tables leave) and on the first generation
//!   after `open`, whose folded log tail never passed the hook. Every
//!   generation rolls the segment and prunes with a lag of one — segment *i*
//!   goes when segment *i+1* starts at or below `cover + 1`, `cover` the
//!   **previous** frame's clock; the previous blob outlives a new base until
//!   it has a successor — so a torn newest frame falls back one generation,
//!   log tail whole.
//! * **Recovery** ([`recover`], run by
//!   [`PolarisEngine::open`](crate::PolarisEngine::open) *before* the log
//!   hook is installed): one `get` of the newest blob, its longest valid
//!   frame prefix folded into one image ([`fold_checkpoint`]; no intact
//!   base: the blob before), then every log record above that clock folded
//!   into the same image in timestamp order up to the first tear — a delta
//!   and a log record fold alike, through [`CatalogImage::apply`] — and the
//!   result imported once ([`Catalog::import_owned`], O(history), as any
//!   restart is). A §6.3 backup restore
//!   ([`PolarisEngine::restore`](crate::PolarisEngine::restore)) is the same
//!   import of a folded blob, so both rebuilds get their counter floors —
//!   clock, table ids, transaction ids — from one place; recovery adds only
//!   the ids the log tail names that the image cannot hold (transactions
//!   with no `Manifests` row, tables created and dropped). The **torn-tail
//!   rule**: a trailing frame that is incomplete, mis-tagged,
//!   checksum-mismatched or unparsable is discarded with everything after
//!   it — an append the dying process never completed, so no client was
//!   ever told it committed. The **dense-clock invariant**: each record must
//!   fold at exactly the image's `clock + 1`; one further ahead means
//!   acknowledged history is missing below it, and recovery fails with
//!   [`polaris_catalog::CatalogError::ReplayGap`] rather than open a
//!   shorter catalog. Recovery reads only `sys/`: a manifest a transaction
//!   uploaded and never committed is an unreferenced blob like any aborted
//!   data file, and [`crate::sto::garbage_collect`] reclaims it.
//!
//! Why the import runs hook-less: it commits rows the log already holds,
//! and a live hook would log them again into a segment *named by the
//! import's timestamp* — overwriting a blob being read. `open` therefore
//! recovers first and only then wires [`CommitLogWriter`] into the catalog;
//! fresh appends start above the recovered clock and collide with nothing.
//! Every recovered row has one version: no engine code reads catalog
//! history below the recovered clock.

use crate::{EngineConfig, PolarisError, PolarisResult};
use parking_lot::Mutex;
use polaris_catalog::wal::{self, CheckpointFrame, WalBatch, WalTail};
use polaris_catalog::{
    Catalog, CatalogError, CatalogImage, CatalogKey, CatalogValue, CommitLogRecord, TableId, TxnId,
};
use polaris_obs::RecoveryMeter;
use polaris_store::{BlobPath, BlockId, Bytes, ObjectStore, Stamp, StoreError, StoreResult};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Prefix of every write-ahead-log segment blob.
pub const WAL_PREFIX: &str = "sys/wal/";
/// Prefix of every durable catalog checkpoint blob.
pub const CHECKPOINT_PREFIX: &str = "sys/checkpoint/";

/// Path of the segment whose first record commits at `first_ts`.
pub fn segment_path(first_ts: u64) -> String {
    format!("{WAL_PREFIX}seg-{first_ts:020}.wal")
}

/// Path of the checkpoint blob whose base image was exported at `clock`.
pub fn checkpoint_path(clock: u64) -> String {
    format!("{CHECKPOINT_PREFIX}ckpt-{clock:020}.ckpt")
}

/// Parse `seg-{first_ts}.wal` back out of a segment path.
fn segment_first_ts(path: &str) -> Option<u64> {
    path.strip_prefix(WAL_PREFIX)?
        .strip_prefix("seg-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

/// `delete`, where the blob being gone already is the outcome wanted.
fn delete_if_present(store: &dyn ObjectStore, path: &BlobPath) -> PolarisResult<()> {
    match store.delete(path) {
        Ok(()) | Err(StoreError::NotFound { .. }) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// The Block-Blob append: stage `frame` as `block`, then publish it by
/// committing the cumulative list. `blocks` keeps the id only if that
/// commit succeeds — a block staged by a failed append is never listed
/// again and storage discards it, so it cannot surface in the blob later.
fn append_block(
    store: &dyn ObjectStore,
    path: &BlobPath,
    blocks: &mut Vec<BlockId>,
    block: BlockId,
    frame: &[u8],
) -> StoreResult<()> {
    store.stage_block(
        path,
        block.clone(),
        Bytes::copy_from_slice(frame),
        Stamp::SYSTEM,
    )?;
    blocks.push(block);
    if let Err(e) = store.commit_block_list(path, blocks, Stamp::SYSTEM) {
        blocks.pop();
        return Err(e);
    }
    Ok(())
}

/// Block ids need only be unique within a blob. A frame's first (or only)
/// commit timestamp is unique per *successful* append; a failed one's
/// reused timestamp simply re-stages (replaces) the orphaned block.
fn block_id(ts: u64) -> BlockId {
    BlockId::new(format!("f-{ts:020}"))
}

// ---------------------------------------------------------------------
// The checkpoint blob's frames
// ---------------------------------------------------------------------

/// `image` as the base frame of a checkpoint blob, into `frame` — also the
/// whole of a §6.3 backup ([`PolarisEngine::backup_catalog`](crate::PolarisEngine::backup_catalog)),
/// which [`fold_checkpoint`] reads back.
pub fn encode_base_frame(image: CatalogImage, frame: &mut Vec<u8>) -> Result<(), String> {
    let writes = image
        .rows
        .into_iter()
        .map(|(key, value)| (key, Some(value)));
    let base = CheckpointFrame {
        clock: image.clock,
        writes: writes.collect(),
    };
    wal::encode_payload_into(&base, frame)
}

/// Fold a checkpoint blob's longest valid frame prefix — a base, then deltas
/// of rising clock — into the image it stands for. `None`: not even the
/// base is intact.
pub fn fold_checkpoint(blob: &[u8]) -> Option<CatalogImage> {
    let (frames, _) = wal::decode_payloads::<CheckpointFrame>(blob);
    let mut frames = frames.into_iter();
    let base = frames.next()?;
    let mut image = CatalogImage {
        clock: base.clock,
        rows: (base.writes.into_iter())
            .filter_map(|(key, value)| Some((key, value?)))
            .collect(),
    };
    for delta in frames {
        if delta.clock <= image.clock {
            break;
        }
        image.apply(delta.clock, delta.writes);
    }
    Some(image)
}

// ---------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------

/// The durable commit-log writer: one per engine, shared between the
/// catalog's commit-log hook (appends) and the post-commit checkpoint
/// trigger. Appends — already serialized by the sequencer — take only
/// `state`; a generation holds `checkpoint` throughout and `state` just long
/// enough to read what is pending and, later, to roll the segment (lock
/// order `checkpoint` → `state`), so its store round trips never stall the
/// sequencer.
pub struct CommitLogWriter {
    store: Arc<dyn ObjectStore>,
    segment_bytes: u64,
    checkpoint_every: u64,
    meter: RecoveryMeter,
    state: Mutex<WriterState>,
    checkpoint: Mutex<CheckpointState>,
}

#[derive(Default)]
struct WriterState {
    /// Every live segment blob, oldest first; the last is the open one
    /// while `segment` is `Some`.
    segments: VecDeque<(u64, BlobPath)>,
    segment: Option<OpenSegment>,
    appends_since_checkpoint: u64,
    /// Pooled WAL frame staging buffer: every append serializes into this
    /// capacity-preserving scratch instead of a fresh allocation per batch.
    frame_buf: Vec<u8>,
    /// Image rows logged since the newest checkpoint frame, each with its
    /// commit timestamp (kept only while generations are on: nothing else
    /// would ever empty it).
    pending: Vec<(u64, CatalogKey, Option<CatalogValue>)>,
    /// Timestamp of the newest logged commit.
    logged_clock: u64,
}

struct OpenSegment {
    path: BlobPath,
    /// Blocks committed into the segment so far (see [`append_block`]: an
    /// aborted batch's block never joins them).
    blocks: Vec<BlockId>,
    bytes: u64,
}

#[derive(Default)]
struct CheckpointState {
    /// The blob generations append to. `None` until this lifetime's first
    /// generation, which is therefore a base.
    blob: Option<OpenBlob>,
    /// Blobs older than the open one: the fallback while it holds nothing
    /// but its base, deleted once a frame follows that base.
    older: Vec<BlobPath>,
    /// Clock of the newest durable frame — where a torn next frame falls
    /// back to, hence the cover the next generation prunes the log against.
    clock: u64,
    frame_buf: Vec<u8>,
}

struct OpenBlob {
    path: BlobPath,
    blocks: Vec<BlockId>,
    base_bytes: u64,
    delta_bytes: u64,
}

impl CommitLogWriter {
    /// Writer over `store` with the durability knobs from `config`.
    pub fn new(store: Arc<dyn ObjectStore>, config: &EngineConfig, meter: RecoveryMeter) -> Self {
        CommitLogWriter {
            store,
            segment_bytes: config.log_segment_bytes.max(1),
            checkpoint_every: config.log_checkpoint_every,
            meter,
            state: Mutex::new(WriterState::default()),
            checkpoint: Mutex::new(CheckpointState::default()),
        }
    }

    /// The meter this writer records into.
    pub fn meter(&self) -> &RecoveryMeter {
        &self.meter
    }

    /// Append one sequencer batch to the log; the catalog's commit-log
    /// hook. Returns `Err` to abort the whole batch (no timestamps
    /// consumed, nothing acknowledged) if the frame cannot be made
    /// durable.
    pub fn append(
        &self,
        records: &[CommitLogRecord<CatalogKey, CatalogValue>],
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let mut state = self.state.lock();
        // Serialize into the writer's pooled buffer. Encoding can fail (it
        // no longer panics inside the sequencer); the error aborts the
        // batch through the catalog's CommitLogFailure path like any other
        // durability failure.
        let wal_batch = WalBatch::from_records(records);
        let WriterState {
            segments,
            segment,
            frame_buf,
            ..
        } = &mut *state;
        wal::encode_frame_into(&wal_batch, frame_buf)?;
        if segment
            .as_ref()
            .is_none_or(|s| s.bytes >= self.segment_bytes)
        {
            let path =
                BlobPath::new(segment_path(wal_batch.first_ts)).map_err(|e| e.to_string())?;
            // A first append that failed leaves its name to the retry.
            if segments.back().is_none_or(|(_, last)| *last != path) {
                segments.push_back((wal_batch.first_ts, path.clone()));
            }
            *segment = Some(OpenSegment {
                path,
                blocks: Vec::new(),
                bytes: 0,
            });
            self.meter.wal_segments.inc();
        }
        let seg = segment.as_mut().expect("segment just ensured");
        let len = frame_buf.len() as u64;
        let block = block_id(wal_batch.first_ts);
        append_block(
            self.store.as_ref(),
            &seg.path,
            &mut seg.blocks,
            block,
            frame_buf,
        )
        .map_err(|e| e.to_string())?;
        seg.bytes += len;
        // Durable, so it will install: hand the image rows to the next
        // checkpoint frame (moved, not cloned a second time).
        for commit in wal_batch.commits {
            state.logged_clock = commit.commit_ts;
            if self.checkpoint_every == 0 {
                continue;
            }
            for (key, value) in commit.writes {
                if !matches!(key, CatalogKey::WriteSet(..)) {
                    state.pending.push((commit.commit_ts, key, value));
                }
            }
        }
        state.appends_since_checkpoint += 1;
        self.meter.wal_appends.inc();
        self.meter.wal_bytes.add(len);
        self.meter
            .wal_append_ns
            .record_ns(t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Check-and-reset the checkpoint trigger. At most one caller gets
    /// `true` per `log_checkpoint_every` appends, so concurrent committers
    /// never write duplicate checkpoints.
    pub fn take_checkpoint_due(&self) -> bool {
        if self.checkpoint_every == 0 {
            return false;
        }
        let mut state = self.state.lock();
        if state.appends_since_checkpoint >= self.checkpoint_every {
            state.appends_since_checkpoint = 0;
            true
        } else {
            false
        }
    }

    /// Write one checkpoint generation — the rows logged since the previous
    /// one as a delta frame, or a fresh base (see the module docs for when)
    /// — then roll the segment and prune the log the *previous* generation
    /// covers. Returns the clock the checkpoint now stands at; with nothing
    /// logged since the last frame that is all it does. Failures leave the
    /// log untouched — a missed checkpoint only means a longer log tail to
    /// fold, never lost commits.
    pub fn checkpoint(&self, catalog: &Catalog) -> PolarisResult<u64> {
        let mut span = self.meter.tracer.span("wal.checkpoint");
        let store = self.store.as_ref();
        let mut ckpt = self.checkpoint.lock();
        let delta = {
            let state = self.state.lock();
            if state.logged_clock <= ckpt.clock {
                return Ok(ckpt.clock);
            }
            let appendable = self.checkpoint_every > 0
                && ckpt
                    .blob
                    .as_ref()
                    .is_some_and(|b| b.delta_bytes <= b.base_bytes);
            // Key order, not commit order: each table's manifest paths then
            // sit side by side and front-code against each other. The fold
            // lands where commit order would: the sort is stable, so writes
            // to one key keep their order, and the rules that tie keys
            // together — a table's rows leave with its `Table` row, rows of a
            // table the image does not hold are skipped — cannot tell the
            // orders apart, for a `Table` row sorts before its table's rows
            // and a table id is never reused.
            appendable.then(|| {
                let pending = state.pending.iter();
                let mut writes: Vec<_> = pending.map(|(_, k, v)| (k.clone(), v.clone())).collect();
                writes.sort_by(|(a, _), (b, _)| a.cmp(b));
                CheckpointFrame {
                    clock: state.logged_clock,
                    writes,
                }
            })
        };
        let CheckpointState {
            blob,
            older,
            clock,
            frame_buf,
        } = &mut *ckpt;
        let cover = *clock;
        let (at, superseded) = match (delta, blob.as_mut()) {
            (Some(delta), Some(open)) => {
                let at = delta.clock;
                wal::encode_payload_into(&delta, frame_buf).map_err(PolarisError::invalid)?;
                append_block(store, &open.path, &mut open.blocks, block_id(at), frame_buf)?;
                open.delta_bytes += frame_buf.len() as u64;
                // A frame now follows the open blob's base.
                (at, std::mem::take(older))
            }
            _ => {
                let image = catalog.export()?;
                let at = image.clock;
                if at <= cover {
                    return Ok(cover); // logged, but not yet published
                }
                encode_base_frame(image, frame_buf).map_err(PolarisError::invalid)?;
                let path = BlobPath::new(checkpoint_path(at))?;
                let mut blocks = Vec::new();
                append_block(store, &path, &mut blocks, block_id(at), frame_buf)?;
                // The blob this one replaces stays as the fallback until a
                // frame follows the new base. Whatever is older than *it* has
                // such a frame already — unless this lifetime had written
                // none, and the blobs it found are that fallback.
                let replaced = blob.replace(OpenBlob {
                    path: path.clone(),
                    blocks,
                    base_bytes: frame_buf.len() as u64,
                    delta_bytes: 0,
                });
                let superseded = match replaced {
                    Some(replaced) => std::mem::replace(older, vec![replaced.path]),
                    None => Vec::new(),
                };
                older.retain(|found| *found != path);
                (at, superseded)
            }
        };
        *clock = at;
        self.meter.checkpoints.inc();
        span.attr("clock", at);
        span.attr("bytes", frame_buf.len());
        drop(ckpt);

        // Forget the rows the frame holds, roll the open segment (later
        // appends open a fresh one, so the successor rule below eventually
        // reclaims the one being closed) and delete every segment wholly at
        // or below `cover` — the frame *before* — so that if the new frame
        // turns out torn, the log above its predecessor is still there.
        let mut covered = Vec::new();
        {
            let mut state = self.state.lock();
            state.pending.retain(|(ts, ..)| *ts > at);
            state.segment = None;
            // Every record in a segment commits below its successor's
            // first timestamp; successor ≤ cover+1 proves full coverage.
            while state
                .segments
                .get(1)
                .is_some_and(|(next_first, _)| *next_first <= cover + 1)
            {
                covered.extend(state.segments.pop_front());
            }
        }
        for path in &superseded {
            delete_if_present(store, path)?;
        }
        for (_, path) in &covered {
            delete_if_present(store, path)?;
            self.meter.segments_pruned.inc();
        }
        Ok(at)
    }
}

/// What [`recover`] rebuilt, surfaced through
/// [`PolarisEngine::recovery_report`](crate::PolarisEngine::recovery_report)
/// and `SHOW ENGINE HEALTH`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Clock of the last intact checkpoint frame folded (0: recovered
    /// from the log alone).
    pub checkpoint_clock: u64,
    /// Log segments read.
    pub segments_scanned: u64,
    /// Batches with at least one commit folded into the image.
    pub replayed_batches: u64,
    /// Commits of the log tail folded into the image (above the checkpoint
    /// clock).
    pub replayed_commits: u64,
    /// Torn tail records discarded.
    pub torn_records: u64,
    /// Stale segments beyond a tear that were dropped.
    pub segments_dropped: u64,
    /// Commit clock after recovery — the replayed watermark.
    pub recovered_clock: u64,
    /// Time spent listing, reading and folding the checkpoint blob.
    pub checkpoint_fold_ns: u64,
    /// Time spent listing, reading and folding the log tail.
    pub log_fold_ns: u64,
    /// Time spent importing the image and advancing the id allocators.
    pub import_ns: u64,
    /// Wall time of the whole recovery.
    pub wall_ns: u64,
}

/// Rebuild `catalog` from the durable state under the writer's store:
/// newest checkpoint blob with an intact base and the log tail above its
/// last intact frame folded into one image and imported — and remember the
/// blobs found, so that generations never have to list them. Reads nothing
/// outside `sys/`. Must run before the commit-log hook is installed and
/// before any traffic (see the module docs for why).
pub fn recover(writer: &CommitLogWriter, catalog: &Catalog) -> PolarisResult<RecoveryReport> {
    let t0 = Instant::now();
    let _alloc = polaris_obs::PhaseScope::enter(polaris_obs::Phase::Replay);
    let (store, meter) = (&writer.store, &writer.meter);
    let mut span = meter.tracer.span("recovery.run");
    let mut report = RecoveryReport::default();

    // 1. Newest checkpoint blob, as far as its frames are intact. A
    //    torn newest frame (crash mid-generation) costs one generation;
    //    a torn base, the whole blob — the one before it is still
    //    there, and the log tail covers the difference either way.
    let checkpoints = store.list(CHECKPOINT_PREFIX)?;
    let mut image = CatalogImage::default();
    for meta in checkpoints.iter().rev() {
        if let Some(folded) = fold_checkpoint(&store.get(&meta.path)?) {
            image = folded;
            meter.checkpoint_loads.inc();
            break;
        }
    }
    report.checkpoint_clock = image.clock;
    let folded_at = Instant::now();
    report.checkpoint_fold_ns = (folded_at - t0).as_nanos() as u64;

    // 2. Fold the log above the checkpoint into the image, oldest segment
    //    first (zero-padded names list in timestamp order), up to the
    //    first tear. A segment beyond a tear is the log's continuation if
    //    it starts right where the tear left the clock — an earlier
    //    recovery stopped there and went on logging — and stale
    //    otherwise: dropped, so it cannot shadow post-recovery appends.
    //    Every id the log names is noted on the way: the image cannot
    //    hold them all (transactions that wrote no `Manifests` row, tables
    //    created and dropped), and post-recovery work allocates above them.
    let (mut txn_floor, mut table_floor) = (0u64, 0u64);
    let mut segments = VecDeque::new();
    let mut torn = false;
    for meta in store.list(WAL_PREFIX)? {
        let Some(first_ts) = segment_first_ts(meta.path.as_str()) else {
            continue;
        };
        if torn && first_ts != image.clock + 1 {
            delete_if_present(store.as_ref(), &meta.path)?;
            report.segments_dropped += 1;
            continue;
        }
        torn = false;
        report.segments_scanned += 1;
        let raw = store.get(&meta.path)?;
        segments.push_back((first_ts, meta.path));
        let (batches, tail) = wal::decode_frames(&raw);
        for batch in batches {
            let mut applied = false;
            for commit in batch.commits {
                txn_floor = txn_floor.max(commit.txn);
                for (key, _) in &commit.writes {
                    if let CatalogKey::Table(id) = key {
                        table_floor = table_floor.max(id.0);
                    }
                }
                if commit.commit_ts <= image.clock {
                    continue; // covered by the checkpoint image
                }
                // Acknowledged history missing below this record: fail,
                // never open without it.
                if commit.commit_ts != image.clock + 1 {
                    return Err(CatalogError::ReplayGap {
                        expected: image.clock + 1,
                        found: commit.commit_ts,
                    }
                    .into());
                }
                image.apply(commit.commit_ts, commit.writes);
                applied = true;
                report.replayed_commits += 1;
                meter.replayed_commits.inc();
            }
            if applied {
                report.replayed_batches += 1;
                meter.replayed_batches.inc();
            }
        }
        if let WalTail::Torn { .. } = tail {
            report.torn_records += 1;
            meter.torn_records.inc();
            torn = true;
        }
    }

    let replayed_at = Instant::now();
    report.log_fold_ns = (replayed_at - folded_at).as_nanos() as u64;

    // 3. One import, which also moves the clock and the id allocators past
    //    everything the image holds; then past what only the log named.
    report.recovered_clock = image.clock;
    // A fresh store has nothing to import, and the import's transaction
    // would take the id the first commit gets.
    if image.clock > 0 {
        catalog.import_owned(image)?;
    }
    catalog.advance_ids(TableId(table_floor), TxnId(txn_floor));
    report.import_ns = replayed_at.elapsed().as_nanos() as u64;

    // 4. What the writer carries on from: the surviving segments, the
    //    blobs its first base will supersede, and the two clocks.
    {
        let mut state = writer.state.lock();
        state.segments = segments;
        state.logged_clock = report.recovered_clock;
    }
    {
        let mut ckpt = writer.checkpoint.lock();
        ckpt.older = checkpoints.into_iter().map(|meta| meta.path).collect();
        ckpt.clock = report.checkpoint_clock;
    }

    report.wall_ns = t0.elapsed().as_nanos() as u64;
    meter.recovery_ns.record_ns(report.wall_ns);
    span.attr("recovered_clock", report.recovered_clock);
    span.attr("replayed_commits", report.replayed_commits);
    span.attr("torn_records", report.torn_records);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_paths_round_trip_and_order() {
        let p1 = segment_path(7);
        let p2 = segment_path(1_000_000);
        assert!(p1 < p2, "zero padding must preserve numeric order");
        assert_eq!(segment_first_ts(&p1), Some(7));
        assert_eq!(segment_first_ts("sys/wal/other.bin"), None);
        assert!(checkpoint_path(9).starts_with(CHECKPOINT_PREFIX));
        assert!(checkpoint_path(9) < checkpoint_path(10));
    }

    fn meta(id: u64, name: &str) -> CatalogValue {
        CatalogValue::Meta(Box::new(polaris_catalog::TableMeta {
            id: TableId(id),
            name: name.into(),
            schema_json: "[]".into(),
            data_root: format!("lake/{name}"),
            cluster_by: Vec::new(),
        }))
    }

    fn manifest(txn: u64, table: u64) -> CatalogValue {
        CatalogValue::ManifestRow(polaris_catalog::ManifestRow {
            manifest_file: format!("lake/t/_log/txn-{txn}-{table}.mf"),
            txn_id: TxnId(txn),
        })
    }

    fn hex(frame: &[u8]) -> String {
        frame.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A delta frame, in key order, with a drop written as deletes, a table
    /// upsert, two `Manifests` rows and a `Checkpoints` row (each string
    /// front-coded against the one before it), pinned byte for byte (header, checksum and
    /// payload): blobs already in a store must keep folding.
    #[test]
    fn delta_frame_golden_bytes() {
        use polaris_catalog::CheckpointRow;
        use polaris_lst::SequenceId;
        let (t, u) = (TableId(1001), TableId(1002));
        let writes = vec![
            (CatalogKey::TableName("u".into()), None),
            (CatalogKey::Table(u), None),
            (CatalogKey::Table(TableId(1003)), Some(meta(1003, "v"))),
            (
                CatalogKey::Manifest(t, SequenceId(6)),
                Some(manifest(5, 1001)),
            ),
            (
                CatalogKey::Manifest(t, SequenceId(7)),
                Some(manifest(6, 1001)),
            ),
            (
                CatalogKey::Checkpoint(t, SequenceId(4)),
                Some(CatalogValue::CheckpointRow(CheckpointRow {
                    path: "c".into(),
                })),
            ),
        ];
        let delta = CheckpointFrame { clock: 7, writes };
        let mut frame = Vec::new();
        wal::encode_payload_into(&delta, &mut frame).unwrap();
        assert_eq!(
            hex(&frame),
            concat!(
                "5057414c4b000000b40b9e94",   // PWAL, 75 payload bytes, crc32
                "0706",                       // clock 7, six writes (ids as zig-zag differences):
                "05000175",                   // 6 × TableName + deleted: "u"
                "0bd40f",                     // 6 × Table + deleted: 1002 (+1002)
                "0702",                       // 6 × Table + Meta: 1003 (+1) ->
                "00000176",                   // {1003 (+0), "v",
                "00025b5d00066c616b652f7600", //  "[]", "lake/v", []}
                "0e030c",                     // 6 × Manifest + ManifestRow: (1001 (-2), 6 (+6)) ->
                "0514742f5f6c6f672f74786e2d352d313030312e6d660a", // "lake/" shared + 20 bytes, txn 5 (+5)
                "0e00021009362d313030312e6d6602", // (1001, 7) -> 16 bytes shared + "6-1001.mf", txn 6
                "1c0005000163", // 6 × Checkpoint + CheckpointRow: (1001, 4 (-3)) -> "c"
            )
        );
        let (frames, tail) = wal::decode_payloads::<CheckpointFrame>(&frame);
        assert_eq!(tail, WalTail::Clean);
        let [CheckpointFrame { clock: 7, writes }] = &frames[..] else {
            panic!("one frame at clock 7");
        };
        assert_eq!(writes, &delta.writes);
    }

    /// A base frame: a table's name binding, metadata, two `Manifests` rows
    /// and a `Checkpoints` row, pinned byte for byte.
    #[test]
    fn base_frame_golden_bytes() {
        use polaris_catalog::CheckpointRow;
        use polaris_lst::SequenceId;
        let t = TableId(1001);
        let image = CatalogImage {
            clock: 7,
            rows: [
                (CatalogKey::TableName("t".into()), CatalogValue::Id(t)),
                (CatalogKey::Table(t), meta(1001, "t")),
                (CatalogKey::Manifest(t, SequenceId(6)), manifest(5, 1001)),
                (CatalogKey::Manifest(t, SequenceId(7)), manifest(6, 1001)),
                (
                    CatalogKey::Checkpoint(t, SequenceId(6)),
                    CatalogValue::CheckpointRow(CheckpointRow {
                        path: "lake/t/_ck/6.ck".into(),
                    }),
                ),
            ]
            .into_iter()
            .collect(),
        };
        let mut frame = Vec::new();
        encode_base_frame(image.clone(), &mut frame).unwrap();
        assert_eq!(
            hex(&frame),
            concat!(
                "5057414c4e0000006987a534",             // PWAL, 78 payload bytes, crc32
                "0705",         // clock 7, five rows (ids as zig-zag differences):
                "00000174d20f", // 6 × TableName + Id: "t" -> 1001 (+1001)
                "070000010000025b5d00066c616b652f7400", // Table 1001 (+0) -> {1001 (+0), "t" shared, ..}
                "0e000c",                               // Manifest (1001 (+0), 6 (+6)) ->
                "06132f5f6c6f672f74786e2d352d313030312e6d660a", // "lake/t" shared + 19 bytes, txn 5 (+5)
                "0e00021009362d313030312e6d6602", // (1001, 7) -> 16 bytes shared + "6-1001.mf", txn 6
                "1c00010807636b2f362e636b", // Checkpoint (1001, 6 (-1)) -> "lake/t/_" shared + "ck/6.ck"
            )
        );
        assert_eq!(fold_checkpoint(&frame), Some(image));
    }
}
