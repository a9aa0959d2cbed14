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
use std::collections::{BTreeMap, HashMap, HashSet};
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
/// costs a replay, never correctness.
#[derive(Default)]
pub(crate) struct StoState {
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

#[derive(Default)]
struct TableSto {
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
        engine
            .store()
            .put(&BlobPath::new(path.clone())?, ckpt.encode(), Stamp::SYSTEM)?;
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

/// Bring every listed table's fate map up to the transaction's snapshot:
/// fold the manifests committed since its watermark — the only manifests
/// fetched and decoded — and forget tables that left the catalog. Returns
/// the data roots to sweep, each with the tables sharing it (zero-copy
/// clones live under their source's root).
fn fold_new_manifests(
    engine: &PolarisEngine,
    ctxn: &mut CatalogTxn,
    tables: &mut HashMap<TableId, TableSto>,
) -> PolarisResult<BTreeMap<String, Vec<TableId>>> {
    let catalog = engine.catalog();
    let listed = catalog.list_tables(ctxn)?;
    let live: HashSet<TableId> = listed.iter().map(|meta| meta.id).collect();
    tables.retain(|id, _| live.contains(id));
    let folded = &engine.sto_meter.folded_manifests;
    let mut roots: BTreeMap<String, Vec<TableId>> = BTreeMap::new();
    for meta in listed {
        let sto = tables.entry(meta.id).or_default();
        let rows = catalog.manifests_between(ctxn, meta.id, sto.folded, SequenceId(u64::MAX))?;
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
        for (_, ckpt) in catalog.checkpoints(ctxn, meta.id)? {
            sto.fates.insert(ckpt.path, Fate::Active);
        }
        roots.entry(meta.data_root).or_default().push(meta.id);
    }
    Ok(roots)
}

/// A blob's fate ACROSS the tables sharing its lineage: Active wins — a
/// file is reachable if any table still references it — and among
/// removals the latest sequence wins (retention counts from the last
/// table to let go). `None`: no manifest ever named it.
fn shared_fate(tables: &[&TableSto], path: &str) -> Option<Fate> {
    let mut shared = None;
    for table in tables {
        match (table.fates.get(path), shared) {
            (None, _) => {}
            (Some(Fate::Active), _) => return Some(Fate::Active),
            (Some(Fate::Removed(at)), Some(Fate::Removed(latest))) if *at <= latest => {}
            (Some(fate), _) => shared = Some(*fate),
        }
    }
    shared
}

/// Sweep all tables: delete files that are logically removed beyond the
/// retention window and below every active snapshot, or that belong to
/// aborted transactions.
///
/// Tables can share lineage through zero-copy clones, so a file referenced
/// by *any* table under its data root stays (§5.3). Only manifests
/// committed since the previous sweep are read; the listing of each root
/// is what still grows with the number of live blobs.
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
    let roots = read_catalog(engine, |ctxn| fold_new_manifests(engine, ctxn, tables))?;
    let now = SequenceId(engine.catalog().now().0);

    let mut report = GcReport::default();
    for (root, ids) in &roots {
        let sharing: Vec<&TableSto> = ids.iter().filter_map(|id| tables.get(id)).collect();
        let mut reclaimed = Vec::new();
        for blob in engine.store().list(&format!("{root}/"))? {
            let path = blob.path.as_str();
            // The published Delta log (§5.4) is the user-accessible copy of
            // the metadata: never subject to internal GC.
            if path.contains("/_delta_log/") {
                report.active += 1;
                continue;
            }
            match shared_fate(&sharing, path) {
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
                    // Never referenced by any manifest: either an in-flight
                    // transaction's private file or an aborted leftover.
                    if blob.stamp.0 < min_active_txn.0 {
                        engine.store().delete(&blob.path)?;
                        report.deleted += 1;
                    } else {
                        report.retained_inflight += 1;
                    }
                }
            }
        }
        for id in ids {
            if let Some(table) = tables.get_mut(id) {
                for path in &reclaimed {
                    table.fates.remove(path.as_str());
                }
            }
        }
    }
    let entries: usize = tables.values().map(|t| t.fates.len()).sum();
    engine.sto_meter.gc_state_entries.set(entries as i64);
    Ok(report)
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
/// newest version's name and rebuilds that version's snapshot `AS OF` it.
pub fn publish_table(engine: &Arc<PolarisEngine>, table: &str) -> PolarisResult<usize> {
    read_catalog(engine, |ctxn| {
        let catalog = engine.catalog();
        let store = &**engine.store();
        let meta = catalog.table_by_name(ctxn, table)?;
        let root = delta_table_root(&meta);
        // Held throughout: two publishers of one table must not both write
        // a version on top of the same last one.
        let mut state = engine.sto_state().lock();
        let sto = state.tables.entry(meta.id).or_default();
        let last = match &sto.published {
            Some(last) => Arc::clone(last),
            None => match publish::published_upto(store, &root)? {
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
        publish::publish_version(store, &root, &last, &current)?;
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
