//! The System Task Orchestrator (§5): autonomous storage optimizations.
//!
//! The STO monitors table statistics and runs four maintenance actions
//! without user intervention: data **compaction** (§5.1), manifest
//! **checkpointing** (§5.2), **garbage collection** (§5.3) and async
//! **Delta publishing** (§5.4). Each action is exposed as an explicit
//! function (the figure harnesses drive them deterministically) plus a
//! background [`StoRunner`] thread that applies the paper's triggers.

use crate::{EngineConfig, PolarisEngine, PolarisResult, SequenceId};
use polaris_catalog::{CatalogTxn, IsolationLevel, TableId, TableMeta, Timestamp};
use polaris_columnar::RecordBatch;
use polaris_exec::{scan::scan_cell, write as bewrite};
use polaris_lst::{publish, Checkpoint, DataFileState, Manifest, ManifestAction, TableSnapshot};
use polaris_store::{BlobPath, Stamp};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `f` in a read-only catalog transaction that is released on every
/// path — a transaction left active would pin the GC watermark for good.
pub(crate) fn read_catalog<R>(
    engine: &PolarisEngine,
    f: impl FnOnce(&mut CatalogTxn) -> PolarisResult<R>,
) -> PolarisResult<R> {
    let mut ctxn = engine.catalog().begin(IsolationLevel::default());
    let out = f(&mut ctxn);
    engine.catalog().abort(&mut ctxn);
    out
}

// ---------------------------------------------------------------------
// STO state: what a tick remembers so the next one pays for the delta
// ---------------------------------------------------------------------

/// The orchestrator's memory between ticks. A disposable BE-side cache in
/// the §3.3 sense: empty after `open`/`restore`, rebuilt by the very fold
/// that maintains it (a cold table folds from watermark 0), and losing it
/// costs a replay, never correctness. That holds for what it knows of
/// dropped tables too: only a restart loses it, no reader survives one, and
/// GC then reclaims those tables' blobs by their stamps
/// ([`garbage_collect`]).
#[derive(Default)]
pub(crate) struct StoState {
    /// Every table the catalog lists, once a tick has looked at it, and
    /// every table this engine dropped that still names a blob.
    tables: HashMap<TableId, TableSto>,
    /// Commit clock the tick's last catalog backup captured.
    backup_clock: Option<Timestamp>,
}

#[derive(Debug, Clone, Copy)]
enum Fate {
    Active,
    /// Logically removed at this sequence.
    Removed(SequenceId),
}

struct TableSto {
    /// The table's data root (a zero-copy clone shares its source's).
    root: String,
    /// The root of its Delta log ([`delta_table_root`]).
    delta_root: String,
    /// Sequence of the commit that dropped the table: from there on it lets
    /// go of every blob it names. `None` while it lives (or its drop has
    /// not committed yet).
    dropped: Option<SequenceId>,
    /// The snapshot the table's newest Delta version holds (§5.4); the next
    /// version is the change from it. `None` until this engine's first
    /// publish of the table, which reads the watermark from the log.
    published: Option<Arc<TableSnapshot>>,
    /// GC fold watermark: manifests up to here are folded into `fates`.
    folded: SequenceId,
    /// Fate of every blob this table's manifest chain names — the LAST
    /// action for a path wins (a file added and later removed is removed).
    /// An entry leaves when the sweep deletes its blob, which bounds the map
    /// by live + in-retention + manifest paths; a fold from watermark 0
    /// also brings back the removals reclaimed before it, which nothing
    /// lists again and nothing drops.
    fates: HashMap<String, Fate>,
}

impl TableSto {
    /// The entry of `meta`'s table, made on first use.
    fn of<'a>(tables: &'a mut HashMap<TableId, TableSto>, meta: &TableMeta) -> &'a mut TableSto {
        tables.entry(meta.id).or_insert_with(|| TableSto {
            root: meta.data_root.clone(),
            delta_root: delta_table_root(meta),
            dropped: None,
            published: None,
            folded: SequenceId(0),
            fates: HashMap::new(),
        })
    }

    /// `fate` as this table holds it: a dropped table has removed, at its
    /// drop, every blob it still referenced.
    fn let_go(&self, fate: Fate) -> Fate {
        match (fate, self.dropped) {
            (Fate::Active, Some(at)) => Fate::Removed(at),
            _ => fate,
        }
    }

    /// Fold one committed manifest (at `seq`, stored at `path`) into the
    /// fate map and advance the watermark past it.
    fn fold(&mut self, seq: SequenceId, path: String, manifest: Manifest) {
        // Committed manifest blobs are always reachable metadata.
        self.fates.insert(path, Fate::Active);
        for action in manifest.actions {
            match action {
                ManifestAction::AddFile(e) => self.fates.insert(e.path, Fate::Active),
                ManifestAction::RemoveFile { path } => self.fates.insert(path, Fate::Removed(seq)),
                ManifestAction::AddDv { dv, .. } => self.fates.insert(dv.path, Fate::Active),
                ManifestAction::RemoveDv { dv_path, .. } => {
                    self.fates.insert(dv_path, Fate::Removed(seq))
                }
            };
        }
        self.folded = seq;
    }
}

// ---------------------------------------------------------------------
// Storage health (the SELECT-time statistics of §5.1)
// ---------------------------------------------------------------------

/// Compaction trigger: a file with a higher deleted fraction is fragmented
/// (§5.1).
pub const COMPACT_MAX_DELETED: f64 = 0.2;

/// Health summary for one table's storage.
#[derive(Debug, Clone, PartialEq)]
pub struct TableHealth {
    /// Table name.
    pub table: String,
    /// Live data files.
    pub file_count: usize,
    /// Small files (fewer live rows than `compact_min_rows`) that share a
    /// distribution with another small file — i.e. files compaction could
    /// actually merge. A lone small file per distribution is the floor
    /// compaction can reach and is not counted.
    pub small_files: usize,
    /// Files whose deleted fraction exceeds [`COMPACT_MAX_DELETED`].
    pub fragmented_files: usize,
    /// Rows visible after delete-vector masking.
    pub live_rows: u64,
    /// Physical rows before masking.
    pub total_rows: u64,
}

impl TableHealth {
    /// Green in the Figure 10 sense: no fragmented files and no mergeable
    /// small files.
    pub fn is_healthy(&self) -> bool {
        self.fragmented_files == 0 && self.small_files == 0
    }
}

/// Compute the health of a table from snapshot metadata alone (no data
/// reads — row and delete counts live in the manifests).
pub fn table_health(engine: &Arc<PolarisEngine>, table: &str) -> PolarisResult<TableHealth> {
    let snap = read_catalog(engine, |ctxn| {
        let meta = engine.catalog().table_by_name(ctxn, table)?;
        engine.snapshot(ctxn, &meta, None)
    })?;
    let config = engine.config();
    let victims = compaction_victims(&snap, config);
    let fragmented_files = victims
        .iter()
        .filter(|f| f.deleted_fraction() > COMPACT_MAX_DELETED)
        .count();
    Ok(TableHealth {
        table: table.to_owned(),
        file_count: snap.file_count(),
        small_files: victims.len() - fragmented_files,
        fragmented_files,
        live_rows: snap.live_rows(),
        total_rows: snap.total_rows(),
    })
}

/// The files compaction would rewrite: fragmented files (deleted fraction
/// above [`COMPACT_MAX_DELETED`]), plus small files in distributions that
/// have at least two of them (a lone small file has nothing to merge
/// with — compaction is per distribution).
fn compaction_victims<'a>(
    snap: &'a TableSnapshot,
    config: &EngineConfig,
) -> Vec<&'a DataFileState> {
    let mut victims = Vec::new();
    let mut small_by_dist: BTreeMap<u32, Vec<&DataFileState>> = BTreeMap::new();
    for f in snap.files() {
        if f.deleted_fraction() > COMPACT_MAX_DELETED {
            victims.push(f);
        } else if f.live_rows() < config.compact_min_rows {
            small_by_dist
                .entry(f.entry.distribution)
                .or_default()
                .push(f);
        }
    }
    for group in small_by_dist.into_values() {
        if group.len() >= 2 {
            victims.extend(group);
        }
    }
    victims
}

// ---------------------------------------------------------------------
// Compaction (§5.1)
// ---------------------------------------------------------------------

/// Outcome of one compaction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// Low-quality files rewritten (logically removed).
    pub compacted_files: usize,
    /// Replacement files written.
    pub new_files: usize,
    /// Live rows carried over.
    pub rows: u64,
    /// Sequence the compaction committed at.
    pub committed_at: SequenceId,
}

/// Compact a table if its health warrants it.
///
/// Runs in its own transaction with the same SI semantics as user
/// transactions: rewritten files are only *logically* removed (GC deletes
/// them after retention), and — as the paper warns — the commit can
/// conflict with concurrent user updates, in which case
/// [`PolarisError::Conflict`](crate::PolarisError::Conflict) surfaces.
pub fn compact_table(
    engine: &Arc<PolarisEngine>,
    table: &str,
) -> PolarisResult<Option<CompactionReport>> {
    let config = *engine.config();
    let mut txn = engine.begin();
    let tid = txn.table_state(table)?;
    // A transaction that has written nothing reads its committed base.
    let base = Arc::clone(&txn.tables[&tid].base);
    let data_root = txn.tables[&tid].meta.data_root.clone();
    let victims = compaction_victims(&base, &config);
    if victims.is_empty() {
        return Ok(None);
    }

    // Read surviving rows per distribution and rewrite them compacted.
    let store = Arc::clone(engine.store());
    let stamp = Stamp(txn.id());
    let mut by_dist: HashMap<u32, Vec<RecordBatch>> = HashMap::new();
    let mut rows = 0u64;
    let mut actions = Vec::new();
    for victim in &victims {
        let cell = polaris_exec::Cell::from_state(victim);
        if let Some((batch, _)) = scan_cell(&*store, &cell, None, None)? {
            rows += batch.num_rows() as u64;
            by_dist
                .entry(victim.entry.distribution)
                .or_default()
                .push(batch);
        }
        actions.push(ManifestAction::remove_file(victim.entry.path.clone()));
    }
    let mut new_files = 0;
    for (dist, batches) in by_dist {
        let merged = RecordBatch::concat(&batches)?;
        if merged.num_rows() == 0 {
            continue;
        }
        let path = format!("{data_root}/data/compact-t{}-d{dist}.pcf", txn.id());
        let written = bewrite::write_data_file(&*store, &path, &merged, config.writer, stamp)?;
        actions.push(crate::txn::add_file_action(written, dist, &merged));
        new_files += 1;
    }
    txn.apply_actions(table, &actions)?;
    let info = txn.commit()?;
    Ok(Some(CompactionReport {
        compacted_files: victims.len(),
        new_files,
        rows,
        committed_at: info.sequence.expect("compaction writes"),
    }))
}

// ---------------------------------------------------------------------
// Checkpointing (§5.2)
// ---------------------------------------------------------------------

/// Outcome of one checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Sequence the checkpoint covers through.
    pub covers: SequenceId,
    /// Live files captured.
    pub files: usize,
    /// Manifests the checkpoint folded in since the previous one.
    pub folded_manifests: usize,
}

/// Manifests committed for `table` after its latest checkpoint.
pub fn manifests_since_checkpoint(
    engine: &Arc<PolarisEngine>,
    table: &str,
) -> PolarisResult<usize> {
    read_catalog(engine, |ctxn| {
        let meta = engine.catalog().table_by_name(ctxn, table)?;
        checkpoint_tail(engine, ctxn, meta.id)
    })
}

fn checkpoint_tail(
    engine: &PolarisEngine,
    ctxn: &mut CatalogTxn,
    table: TableId,
) -> PolarisResult<usize> {
    let catalog = engine.catalog();
    let last = catalog
        .latest_checkpoint(ctxn, table, SequenceId(u64::MAX))?
        .map_or(SequenceId(0), |(seq, _)| seq);
    Ok(catalog
        .manifests_between(ctxn, table, last, SequenceId(u64::MAX))?
        .len())
}

/// Write a checkpoint unconditionally (no-op if nothing new to fold).
///
/// Unlike compaction, checkpointing touches no data files and can never
/// conflict with user transactions.
pub fn checkpoint_table(
    engine: &Arc<PolarisEngine>,
    table: &str,
) -> PolarisResult<Option<CheckpointReport>> {
    checkpoint_with_tail(engine, table, 1)
}

/// Checkpoint only once `checkpoint_every` manifests have accumulated —
/// the paper's trigger (10 in the Figure 11 experiment).
pub fn checkpoint_if_needed(
    engine: &Arc<PolarisEngine>,
    table: &str,
) -> PolarisResult<Option<CheckpointReport>> {
    checkpoint_with_tail(engine, table, engine.config().checkpoint_every as usize)
}

/// Checkpoint `table` if at least `min_tail` manifests follow its latest
/// checkpoint. The count, the snapshot and the `Checkpoints` row all belong
/// to one catalog transaction.
fn checkpoint_with_tail(
    engine: &Arc<PolarisEngine>,
    table: &str,
    min_tail: usize,
) -> PolarisResult<Option<CheckpointReport>> {
    let mut ctxn = engine.catalog().begin(IsolationLevel::default());
    let staged = (|| {
        let meta = engine.catalog().table_by_name(&mut ctxn, table)?;
        let folded = checkpoint_tail(engine, &mut ctxn, meta.id)?;
        if folded < min_tail.max(1) {
            return Ok(None);
        }
        let snap = engine.snapshot(&mut ctxn, &meta, None)?;
        let ckpt = Checkpoint::from_snapshot(&snap);
        let path = polaris_lst::checkpoint_path(&meta.data_root, ckpt.upto);
        // Stamped with the transaction that will name it: until its row
        // commits, GC takes the blob for in-flight work, not garbage.
        let stamp = Stamp(ctxn.id.0);
        engine
            .store()
            .put(&BlobPath::new(path.clone())?, ckpt.encode(), stamp)?;
        engine
            .catalog()
            .add_checkpoint(&mut ctxn, meta.id, ckpt.upto, &path)?;
        Ok(Some(CheckpointReport {
            covers: ckpt.upto,
            files: ckpt.file_count(),
            folded_manifests: folded,
        }))
    })();
    match staged {
        Ok(Some(report)) => {
            engine.catalog().commit(&mut ctxn)?;
            Ok(Some(report))
        }
        nothing_staged => {
            engine.catalog().abort(&mut ctxn);
            nothing_staged.map(|_| None)
        }
    }
}

// ---------------------------------------------------------------------
// Garbage collection (§5.3)
// ---------------------------------------------------------------------

/// Outcome of a GC sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Blobs physically deleted.
    pub deleted: usize,
    /// Unknown blobs retained because an in-flight transaction may own
    /// them (stamp ≥ min active transaction id).
    pub retained_inflight: usize,
    /// Blobs referenced by some active set.
    pub active: usize,
}

/// Bring every table's fate map up to the transaction's snapshot: fold the
/// manifests committed since its watermark — the only manifests fetched and
/// decoded. The tables are those the catalog lists and those this engine
/// dropped: a dropped table's `Manifests` and `Checkpoints` rows stay in the
/// live catalog (only the catalog image leaves them out).
fn fold_new_manifests(
    engine: &PolarisEngine,
    ctxn: &mut CatalogTxn,
    tables: &mut HashMap<TableId, TableSto>,
) -> PolarisResult<()> {
    let catalog = engine.catalog();
    for meta in catalog.list_tables(ctxn)? {
        TableSto::of(tables, &meta);
    }
    let folded = &engine.sto_meter.folded_manifests;
    for (&id, sto) in tables.iter_mut() {
        let rows = catalog.manifests_between(ctxn, id, sto.folded, SequenceId(u64::MAX))?;
        for (seq, row) in rows {
            let raw = engine
                .store()
                .get(&BlobPath::new(row.manifest_file.clone())?)?;
            sto.fold(seq, row.manifest_file, Manifest::decode(&raw)?);
            folded.inc();
        }
        // One row per checkpoint the STO ever took of this table — a
        // checkpoint can commit below a newer one's sequence, so there is
        // no watermark to read them from.
        for (_, ckpt) in catalog.checkpoints(ctxn, id)? {
            sto.fates.insert(ckpt.path, Fate::Active);
        }
    }
    Ok(())
}

/// One blob's fates across the tables that name it, combined: Active wins —
/// a file is reachable if any table still references it — and among
/// removals the latest sequence wins (retention counts from the last table
/// to let go). `None`: no table names it.
fn shared_fate(fates: impl IntoIterator<Item = Fate>) -> Option<Fate> {
    let mut shared = None;
    for fate in fates {
        match (fate, shared) {
            (Fate::Active, _) => return Some(Fate::Active),
            (Fate::Removed(at), Some(Fate::Removed(latest))) if at <= latest => {}
            (fate, _) => shared = Some(fate),
        }
    }
    shared
}

/// The lake's one sweeper (§5.3): one listing of `lake/`, every blob in it
/// judged by its fate across the tables under its data root — zero-copy
/// clones share their source's (`shared_fate`) — and a Delta log blob by
/// its table's. A removed blob goes once it is past the retention window
/// and below every active snapshot.
///
/// A table dropped in this engine's lifetime keeps its fate map, in which
/// every blob it still referenced is removed at the drop: a reader that
/// began before the drop keeps reading, and a live clone keeps what it
/// names. The map is forgotten once the sweeps have reclaimed all of it.
///
/// A blob no table names — an aborted transaction's leftover, an orphan
/// manifest of one that died mid-commit, a blob of a table dropped before
/// the last `open` — goes once its stamp is below every active transaction
/// id. No snapshot predates a drop from before `open`, and `AS OF` resolves
/// names at the current catalog snapshot, so nothing can read those. A
/// transaction in flight at a crash may carry an id the restarted allocator
/// hands out again (recovery passes only logged ids): its blobs go once
/// the allocator has passed it, which every statement and tick moves
/// towards.
///
/// Only manifests committed since the previous sweep are read; the listing
/// is what still grows with the number of blobs.
pub fn garbage_collect(engine: &Arc<PolarisEngine>) -> PolarisResult<GcReport> {
    let config = *engine.config();
    // The watermark must be sampled BEFORE the snapshot below is taken: a
    // transaction that commits in between would be invisible to the fold
    // yet already gone from the active set, and its freshly committed data
    // files would be swept as aborted leftovers. Sampled first, any
    // transaction missing from the active set has either committed (its
    // writes became visible before it left the set, so the later snapshot
    // sees its manifest) or aborted (its files are true garbage).
    let min_active_txn = engine.catalog().min_active_txn_id();
    // The oldest snapshot anything can still be reading (§5.3's watermark):
    // a file removed above it is invisible to new readers but not to that
    // one. Sampled before the fold for the same reason — a reader that
    // begins later begins at or above every removal the fold will see.
    let clock = engine.catalog().now();
    let horizon = engine
        .catalog()
        .min_active_snapshot()
        .map_or(clock, |oldest| oldest.min(clock));
    let mut state = engine.sto_state().lock();
    let tables = &mut state.tables;
    read_catalog(engine, |ctxn| fold_new_manifests(engine, ctxn, tables))?;
    let now = SequenceId(engine.catalog().now().0);

    let mut roots: HashMap<&str, Vec<&TableSto>> = HashMap::new();
    let mut logs: HashMap<&str, Vec<&TableSto>> = HashMap::new();
    for sto in tables.values() {
        roots.entry(&sto.root).or_default().push(sto);
        logs.entry(&sto.delta_root).or_default().push(sto);
    }
    let mut report = GcReport::default();
    let mut reclaimed = Vec::new();
    // Every data root and Delta log lives under `lake/` (`create_table`).
    for blob in engine.store().list("lake/")? {
        let path = blob.path.as_str();
        let fate = match path.split_once("/_delta_log/") {
            // The published Delta log (§5.4) is the user-accessible copy of
            // a table's metadata: it lives as long as that table does.
            Some((log, _)) => {
                let owners = logs.get(log).into_iter().flatten();
                shared_fate(owners.map(|sto| sto.let_go(Fate::Active)))
            }
            None => {
                let root = path
                    .match_indices('/')
                    .find_map(|(at, _)| roots.get(&path[..at]));
                let owners = root.into_iter().flatten();
                shared_fate(owners.filter_map(|sto| Some(sto.let_go(*sto.fates.get(path)?))))
            }
        };
        match fate {
            Some(Fate::Active) => report.active += 1,
            Some(Fate::Removed(at)) => {
                if now.0.saturating_sub(at.0) > config.retention_seqs && at.0 <= horizon.0 {
                    engine.store().delete(&blob.path)?;
                    report.deleted += 1;
                    reclaimed.push(blob.path);
                } else {
                    // Still reachable: by time travel within retention,
                    // or by a snapshot older than the removal.
                    report.active += 1;
                }
            }
            None => {
                // Named by no table: an in-flight transaction's private
                // blob, or garbage.
                if blob.stamp.0 < min_active_txn.0 {
                    engine.store().delete(&blob.path)?;
                    report.deleted += 1;
                } else {
                    report.retained_inflight += 1;
                }
            }
        }
    }
    for table in tables.values_mut() {
        for path in &reclaimed {
            table.fates.remove(path.as_str());
        }
    }
    tables.retain(|_, sto| sto.dropped.is_none() || !sto.fates.is_empty());
    let entries: usize = tables.values().map(|t| t.fates.len()).sum();
    engine.sto_meter.gc_state_entries.set(entries as i64);
    Ok(report)
}

/// Commit `txn`, which drops `meta`'s table, and hand the table's blobs to
/// GC: its fate map is kept (made if no tick has folded the table yet)
/// before the commit, so no sweep ever sees the table gone and its blobs
/// unnamed, and marked with the drop's sequence after it.
pub(crate) fn commit_drop(
    engine: &PolarisEngine,
    txn: &mut CatalogTxn,
    meta: &TableMeta,
) -> PolarisResult<()> {
    let mut state = engine.sto_state().lock();
    let sto = TableSto::of(&mut state.tables, meta);
    let outcome = engine.catalog().commit(txn)?;
    sto.dropped = Some(SequenceId(outcome.commit_ts.0));
    Ok(())
}

// ---------------------------------------------------------------------
// Async Delta publishing (§5.4)
// ---------------------------------------------------------------------

/// Publish the table's commits since its newest Delta version as ONE
/// version, `<to>.json` under its `_delta_log/`, where `to` is the newest
/// committed sequence: the net change from the snapshot the newest version
/// holds to the current one, taken from the snapshot cache (no manifest is
/// read for it). When an lst checkpoint was taken in `(from, to]`, a Delta
/// checkpoint of the same snapshot follows the version. Returns the number
/// of commits the version covers; 0, and no write, when there are none.
///
/// The first publish of a table after `open` reads the watermark from the
/// newest version's name and rebuilds that version's snapshot `AS OF` it —
/// unless another table wrote that version ([`publish::resume_log`]), and
/// the table starts a log of its own.
pub fn publish_table(engine: &Arc<PolarisEngine>, table: &str) -> PolarisResult<usize> {
    read_catalog(engine, |ctxn| {
        let catalog = engine.catalog();
        let store = &**engine.store();
        let meta = catalog.table_by_name(ctxn, table)?;
        let root = delta_table_root(&meta);
        // Held throughout: two publishers of one table must not both write
        // a version on top of the same last one.
        let mut state = engine.sto_state().lock();
        let sto = TableSto::of(&mut state.tables, &meta);
        let last = match &sto.published {
            Some(last) => Arc::clone(last),
            None => match publish::resume_log(store, &root, meta.id.0)? {
                SequenceId(0) => Arc::new(TableSnapshot::empty()),
                upto => engine.snapshot(ctxn, &meta, Some(upto))?,
            },
        };
        let current = engine.snapshot(ctxn, &meta, None)?;
        let (from, to) = (last.upto(), current.upto());
        if to <= from {
            // Nothing new, or a publisher with a newer catalog snapshot got
            // here first: never step the watermark back.
            sto.published = Some(last);
            return Ok(0);
        }
        let mut span = engine.tracer().span("lst.publish");
        span.attr("table", table);
        let covered = catalog.manifests_between(ctxn, meta.id, from, to)?.len();
        // The version first: a checkpoint must name a published version, or
        // a reader starting from it would apply the next version to the
        // wrong state.
        publish::publish_version(store, &root, meta.id.0, &last, &current)?;
        let checkpointed = catalog.latest_checkpoint(ctxn, meta.id, to)?;
        if checkpointed.is_some_and(|(at, _)| at > from) {
            publish::publish_snapshot_as_delta(store, &root, &current)?;
        }
        sto.published = Some(current);
        span.attr("published", covered);
        Ok(covered)
    })
}

/// Where a table's Delta log lives: `<lake>/<name>/_delta_log/`. A table
/// owns its data root `<lake>/<name>`, so that is `{data_root}/_delta_log/`.
/// A zero-copy clone shares its source's data root (§6.2) and gets a log of
/// its own, so two tables' versions never interleave in one log.
fn delta_table_root(meta: &TableMeta) -> String {
    match meta.data_root.rsplit_once('/') {
        Some((lake, _)) => format!("{lake}/{}", meta.name),
        None => meta.name.clone(),
    }
}

// ---------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------

/// Summary of one orchestrator tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoTickReport {
    /// Checkpoints written.
    pub checkpoints: usize,
    /// Compactions committed.
    pub compactions: usize,
    /// Compactions lost to conflicts with user transactions.
    pub compaction_conflicts: usize,
    /// Commits the tick's Delta versions cover (one version per table with
    /// new commits).
    pub published: usize,
    /// Blobs reclaimed by GC.
    pub gc_deleted: usize,
}

/// Run one monitoring pass over every table — compact where the health
/// trigger fires, checkpoint where enough manifests have piled up, publish
/// one Delta version — then GC.
///
/// The order is what keeps the lake log small: the checkpoint and the
/// published version both see the compacted snapshot, so neither lists the
/// small files the same tick's compaction merged, and the version holds
/// the tick's net change instead of one file per commit.
pub fn run_once(engine: &Arc<PolarisEngine>) -> PolarisResult<StoTickReport> {
    let started = Instant::now();
    let mut report = StoTickReport::default();
    let tables = read_catalog(engine, |ctxn| Ok(engine.catalog().list_tables(ctxn)?))?;
    for table in tables.iter().map(|meta| meta.name.as_str()) {
        // Finds no victims, and does nothing, on a healthy table.
        match compact_table(engine, table) {
            Ok(Some(_)) => report.compactions += 1,
            Ok(None) => {}
            Err(e) if e.is_retryable_conflict() => report.compaction_conflicts += 1,
            Err(e) => return Err(e),
        }
        if checkpoint_if_needed(engine, table)?.is_some() {
            report.checkpoints += 1;
        }
        report.published += publish_table(engine, table)?;
    }
    report.gc_deleted = garbage_collect(engine)?.deleted;
    // Periodic catalog backup (§6.3), enabling point-in-time restore of the
    // whole database: one per pass that follows a commit (an image of the
    // clock the previous backup captured would be the same image) — unless
    // the engine logs its commits, in which case the checkpoint blob plus
    // the log already are that backup and a second image is pure rewrite.
    let clock = engine.catalog().now();
    if engine.commit_log_writer().is_none() && engine.sto_state().lock().backup_clock != Some(clock)
    {
        engine.backup_catalog("system/catalog-backup.ckpt")?;
        engine.sto_state().lock().backup_clock = Some(clock);
    }
    let meter = &engine.sto_meter;
    meter.ticks.inc();
    meter.checkpoints.add(report.checkpoints as u64);
    meter.compactions.add(report.compactions as u64);
    meter
        .compaction_conflicts
        .add(report.compaction_conflicts as u64);
    meter.published.add(report.published as u64);
    meter.gc_deleted.add(report.gc_deleted as u64);
    meter.tick_ns.record_since(started);
    Ok(report)
}

/// Background STO thread applying [`run_once`] on an interval; dropping
/// it stops and joins the thread.
pub struct StoRunner {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StoRunner {
    /// Start the orchestrator.
    pub fn start(engine: Arc<PolarisEngine>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("polaris-sto".to_owned())
            .spawn(move || {
                while !stop2.load(Ordering::SeqCst) {
                    // Maintenance failures (e.g. compaction conflicts) must
                    // not kill the orchestrator.
                    let _ = run_once(&engine);
                    // `Drop` unparks: stopping never waits out an interval.
                    std::thread::park_timeout(interval);
                }
            })
            .expect("spawning the STO thread");
        StoRunner {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop and join the orchestrator.
    pub fn stop(self) {}
}

impl Drop for StoRunner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopping_the_runner_does_not_wait_out_the_interval() {
        let runner = StoRunner::start(PolarisEngine::in_memory(), Duration::from_secs(10));
        let begun = std::time::Instant::now();
        runner.stop();
        assert!(begun.elapsed() < Duration::from_millis(100));
    }
}
