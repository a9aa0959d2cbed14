//! The typed Polaris system catalog: logical metadata plus the `Manifests`,
//! `WriteSets` and `Checkpoints` tables of §3.1, hosted on the MVCC store.

use crate::{
    CatalogError, CatalogResult, CommitOutcome, ConflictGranularity, IsolationLevel, MvccStore,
    Timestamp, Txn, TxnId,
};
use polaris_lst::SequenceId;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a table object within a database (the `Table Id` column
/// of the catalog tables, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u64);

/// Logical metadata for one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Unique id.
    pub id: TableId,
    /// User-visible name.
    pub name: String,
    /// Serialized schema (the catalog is agnostic to the schema encoding;
    /// the engine stores its `Schema` as JSON here).
    pub schema_json: String,
    /// Root path of the table's data in the lake.
    pub data_root: String,
    /// Optional Z-order clustering keys (§2.3): inserts sort rows by the
    /// interleaved key of these columns so range predicates prune files.
    pub cluster_by: Vec<String>,
}

/// One row of the `Manifests` table: transaction `txn_id` committed manifest
/// file `manifest_file` for this table at sequence `seq` (in the key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRow {
    /// Blob path of the committed transaction manifest.
    pub manifest_file: String,
    /// The committing transaction's durable id (for GC, §5.3).
    pub txn_id: TxnId,
}

/// One row of the `Checkpoints` table (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRow {
    /// Blob path of the checkpoint file.
    pub path: String,
}

/// Keys of the catalog keyspace. Ordering matters: manifests of one table
/// sort by sequence so snapshot construction is a range scan.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CatalogKey {
    /// Table name -> id binding.
    TableName(String),
    /// Table id -> logical metadata.
    Table(TableId),
    /// `Manifests` rows, keyed (table, sequence).
    Manifest(TableId, SequenceId),
    /// `WriteSets` rows, keyed (table, optional data file) (§4.4.1).
    WriteSet(TableId, Option<String>),
    /// `Checkpoints` rows, keyed (table, covered-through sequence).
    Checkpoint(TableId, SequenceId),
}

/// Values of the catalog keyspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogValue {
    /// For [`CatalogKey::TableName`].
    Id(TableId),
    /// For [`CatalogKey::Table`]; boxed, so every row stays a path's size.
    Meta(Box<TableMeta>),
    /// For [`CatalogKey::Manifest`].
    ManifestRow(ManifestRow),
    /// For [`CatalogKey::WriteSet`] — the `Updated` counter of Figure 4.
    Updated(u64),
    /// For [`CatalogKey::Checkpoint`].
    CheckpointRow(CheckpointRow),
}

/// A catalog transaction: the SQL-DB root transaction of a Polaris user
/// transaction (§3).
pub type CatalogTxn = Txn<CatalogKey, CatalogValue>;

/// The catalog's commit-log hook type: per-batch records over the catalog
/// keyspace (see [`crate::CommitLog`]).
pub type CatalogCommitLog = crate::CommitLog<CatalogKey, CatalogValue>;

/// The catalog's committed rows at one clock — the §6.3 backup payload, the
/// base of a checkpoint blob, and what recovery folds the log into.
///
/// `rows` holds every committed `(CatalogKey, CatalogValue)` but the
/// `WriteSets` rows, which only validation reads. A table's `Manifests` and
/// `Checkpoints` rows leave with its `Table` row: a dropped table has none.
/// Checkpoint deltas and log records fold into an image through
/// [`CatalogImage::apply`], in the `(key, Option<value>)` form the log writes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogImage {
    /// Commit clock the rows stand at.
    pub clock: u64,
    /// The rows, in key order.
    pub rows: BTreeMap<CatalogKey, CatalogValue>,
}

impl CatalogImage {
    /// Bring the image to `clock` by folding the writes committed since, in
    /// commit order: each upserts its row, or removes it on `None`. Removing
    /// a `Table` row removes its table's rows, rows written for a table the
    /// image does not hold are skipped, and `WriteSets` rows are not image
    /// rows. [`Catalog::export`] is this fold of the committed rows.
    pub fn apply(
        &mut self,
        clock: u64,
        writes: impl IntoIterator<Item = (CatalogKey, Option<CatalogValue>)>,
    ) {
        use CatalogKey::{Checkpoint, Manifest, Table};
        for (key, value) in writes {
            match (key, value) {
                (CatalogKey::WriteSet(..), _) => {}
                (Table(id), None) => self.rows.retain(|key, _| {
                    !matches!(key, Table(t) | Manifest(t, _) | Checkpoint(t, _) if *t == id)
                }),
                (Manifest(id, _) | Checkpoint(id, _), Some(_))
                    if !self.rows.contains_key(&Table(id)) => {}
                (key, Some(value)) => {
                    self.rows.insert(key, value);
                }
                (key, None) => {
                    self.rows.remove(&key);
                }
            }
        }
        self.clock = clock;
    }
}

/// The Polaris system catalog.
///
/// All reads and writes go through [`CatalogTxn`]s with SI semantics; the
/// commit protocol of §4.1.2 is [`Catalog::commit_write`].
pub struct Catalog {
    store: MvccStore<CatalogKey, CatalogValue>,
    next_table_id: AtomicU64,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::with_meter(polaris_obs::CatalogMeter::default())
    }

    /// An empty catalog recording commit outcomes and commit-lock hold
    /// times into `meter` (see [`MvccStore::with_meter`]).
    pub fn with_meter(meter: polaris_obs::CatalogMeter) -> Self {
        Catalog {
            store: MvccStore::with_meter(meter),
            next_table_id: AtomicU64::new(1001),
        }
    }

    /// Configure sequencer group commit (see
    /// [`MvccStore::set_group_commit`]): up to `max_batch` validated
    /// commits publish through one global section; a partial batch drains
    /// after `window`. `max_batch <= 1` keeps the direct path.
    pub fn set_group_commit(&self, max_batch: usize, window: std::time::Duration) {
        self.store.set_group_commit(max_batch, window)
    }

    /// Install (or clear) the per-batch durable commit-log hook (see
    /// [`crate::CommitLog`]).
    pub fn set_commit_log(&self, hook: Option<CatalogCommitLog>) {
        self.store.set_commit_log(hook)
    }

    /// Install (or clear) the commit failpoint probe (see
    /// [`crate::CommitProbe`] — crash-injection harnesses only).
    pub fn set_commit_probe(&self, probe: Option<crate::CommitProbe>) {
        self.store.set_commit_probe(probe)
    }

    /// The catalog's meter (shared counter/histogram handles).
    pub fn meter(&self) -> &polaris_obs::CatalogMeter {
        self.store.meter()
    }

    /// Begin a transaction.
    pub fn begin(&self, isolation: IsolationLevel) -> CatalogTxn {
        self.store.begin(isolation)
    }

    /// Begin a read-only transaction pinned to a historical snapshot
    /// (Query As Of, §6.1).
    pub fn begin_at(&self, snapshot: Timestamp) -> CatalogTxn {
        self.store.begin_at(snapshot)
    }

    /// Latest committed timestamp (the current global sequence).
    pub fn now(&self) -> Timestamp {
        self.store.now()
    }

    /// Smallest snapshot among active transactions — the GC watermark.
    pub fn min_active_snapshot(&self) -> Option<Timestamp> {
        self.store.min_active_snapshot()
    }

    /// Smallest active transaction id (see
    /// [`MvccStore::min_active_txn_id`]).
    pub fn min_active_txn_id(&self) -> TxnId {
        self.store.min_active_txn_id()
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.store.active_count()
    }

    /// The longest-running active transaction: `(id, wall-clock age)` —
    /// the watchdog's GC-watermark pinning probe.
    pub fn oldest_active(&self) -> Option<(TxnId, std::time::Duration)> {
        self.store.oldest_active()
    }

    /// Every active transaction as `(id, snapshot ts, age)` — the
    /// `polaris.transactions` system table's source.
    pub fn active_txns(&self) -> Vec<(TxnId, Timestamp, std::time::Duration)> {
        self.store.active_txns()
    }

    /// Validated commits currently parked in the group-commit queue.
    pub fn group_queue_depth(&self) -> usize {
        self.store.group_queue_depth()
    }

    /// Abort a transaction, discarding its buffered writes.
    pub fn abort(&self, txn: &mut CatalogTxn) {
        self.store.abort(txn)
    }

    /// Commit a read-only or DDL-only transaction. A read-only one draws
    /// no timestamp and is not logged (see [`MvccStore::commit`]).
    pub fn commit(&self, txn: &mut CatalogTxn) -> CatalogResult<CommitOutcome> {
        self.store.commit(txn)
    }

    // ------------------------------------------------------------------
    // Logical metadata (tables)
    // ------------------------------------------------------------------

    /// Create a table. The id is allocated immediately; visibility follows
    /// the transaction.
    pub fn create_table(
        &self,
        txn: &mut CatalogTxn,
        name: &str,
        schema_json: &str,
        data_root: &str,
        cluster_by: &[String],
    ) -> CatalogResult<TableId> {
        let key = CatalogKey::TableName(name.to_owned());
        if self.store.read(txn, &key)?.is_some() {
            return Err(CatalogError::AlreadyExists {
                what: format!("table {name}"),
            });
        }
        let id = TableId(self.next_table_id.fetch_add(1, Ordering::SeqCst));
        let meta = Box::new(TableMeta {
            id,
            name: name.to_owned(),
            schema_json: schema_json.to_owned(),
            data_root: data_root.to_owned(),
            cluster_by: cluster_by.to_vec(),
        });
        self.store.write(txn, key, CatalogValue::Id(id))?;
        self.store
            .write(txn, CatalogKey::Table(id), CatalogValue::Meta(meta))?;
        Ok(id)
    }

    /// Register an existing [`TableMeta`] under a new id — used by zero-copy
    /// clone (§6.2), which duplicates only logical metadata.
    pub fn register_table(&self, txn: &mut CatalogTxn, meta: TableMeta) -> CatalogResult<()> {
        let key = CatalogKey::TableName(meta.name.clone());
        if self.store.read(txn, &key)?.is_some() {
            return Err(CatalogError::AlreadyExists {
                what: format!("table {}", meta.name),
            });
        }
        self.store.write(txn, key, CatalogValue::Id(meta.id))?;
        let table = CatalogKey::Table(meta.id);
        self.store
            .write(txn, table, CatalogValue::Meta(Box::new(meta)))?;
        Ok(())
    }

    /// Allocate a fresh table id (for clones).
    pub fn allocate_table_id(&self) -> TableId {
        TableId(self.next_table_id.fetch_add(1, Ordering::SeqCst))
    }

    /// Drop a table's logical metadata and return it. Physical files are
    /// handled by GC.
    pub fn drop_table(&self, txn: &mut CatalogTxn, name: &str) -> CatalogResult<TableMeta> {
        let meta = self.table_by_name(txn, name)?;
        self.store
            .delete(txn, CatalogKey::TableName(name.to_owned()))?;
        self.store.delete(txn, CatalogKey::Table(meta.id))?;
        Ok(meta)
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, txn: &mut CatalogTxn, name: &str) -> CatalogResult<TableMeta> {
        let id = match self
            .store
            .read(txn, &CatalogKey::TableName(name.to_owned()))?
        {
            Some(CatalogValue::Id(id)) => id,
            _ => {
                return Err(CatalogError::NotFound {
                    what: format!("table {name}"),
                })
            }
        };
        self.table_by_id(txn, id)
    }

    /// Look up a table by id.
    pub fn table_by_id(&self, txn: &mut CatalogTxn, id: TableId) -> CatalogResult<TableMeta> {
        match self.store.read(txn, &CatalogKey::Table(id))? {
            Some(CatalogValue::Meta(meta)) => Ok(*meta),
            _ => Err(CatalogError::NotFound {
                what: format!("table id {}", id.0),
            }),
        }
    }

    /// All tables visible to the transaction.
    pub fn list_tables(&self, txn: &mut CatalogTxn) -> CatalogResult<Vec<TableMeta>> {
        let lo = CatalogKey::Table(TableId(0));
        let hi = CatalogKey::Table(TableId(u64::MAX));
        Ok(self
            .store
            .scan(txn, Included(&lo), Included(&hi))?
            .into_iter()
            .filter_map(|(_, v)| match v {
                CatalogValue::Meta(m) => Some(*m),
                _ => None,
            })
            .collect())
    }

    // ------------------------------------------------------------------
    // Manifests (§3.1)
    // ------------------------------------------------------------------

    /// Manifest rows for `table` visible to the transaction, ascending by
    /// sequence — the transaction's snapshot definition (§4.1.1), the
    /// "visible rows within the Manifests table".
    pub fn visible_manifests(
        &self,
        txn: &mut CatalogTxn,
        table: TableId,
    ) -> CatalogResult<Vec<(SequenceId, ManifestRow)>> {
        self.manifests_between(txn, table, SequenceId(0), SequenceId(u64::MAX))
    }

    /// Manifest rows with sequence in `(from, to]`, ascending — the
    /// incremental fetch used by the BE snapshot cache.
    pub fn manifests_between(
        &self,
        txn: &mut CatalogTxn,
        table: TableId,
        from_exclusive: SequenceId,
        to_inclusive: SequenceId,
    ) -> CatalogResult<Vec<(SequenceId, ManifestRow)>> {
        let lo = CatalogKey::Manifest(table, from_exclusive);
        let hi = CatalogKey::Manifest(table, to_inclusive);
        Ok(self
            .store
            .scan(txn, Excluded(&lo), Included(&hi))?
            .into_iter()
            .filter_map(|(k, v)| match (k, v) {
                (CatalogKey::Manifest(_, seq), CatalogValue::ManifestRow(row)) => Some((seq, row)),
                _ => None,
            })
            .collect())
    }

    /// Sequence of the newest manifest row for `table` visible to the
    /// transaction, clamped to `to_inclusive` — `SequenceId(0)` when the
    /// table has none.
    ///
    /// This is the per-statement snapshot-freshness probe: it replaces a
    /// full [`Catalog::visible_manifests`] materialization (which clones
    /// every manifest row the table ever committed) with a clone-free
    /// last-key lookup, so the hot path stays O(log n) and allocation-free
    /// no matter how long the table's history grows.
    pub fn latest_manifest_sequence(
        &self,
        txn: &mut CatalogTxn,
        table: TableId,
        to_inclusive: SequenceId,
    ) -> CatalogResult<SequenceId> {
        let lo = CatalogKey::Manifest(table, SequenceId(0));
        let hi = CatalogKey::Manifest(table, to_inclusive);
        Ok(
            match self
                .store
                .last_key_in_range(txn, Excluded(&lo), Included(&hi))?
            {
                Some(CatalogKey::Manifest(_, seq)) => seq,
                _ => SequenceId(0),
            },
        )
    }

    /// Re-insert manifest rows for a clone (§6.2): every manifest of the
    /// source visible up to `upto` is associated with `target`.
    pub fn copy_manifests_for_clone(
        &self,
        txn: &mut CatalogTxn,
        source: TableId,
        target: TableId,
        upto: SequenceId,
    ) -> CatalogResult<usize> {
        let rows = self.manifests_between(txn, source, SequenceId(0), upto)?;
        let n = rows.len();
        for (seq, row) in rows {
            self.store.write(
                txn,
                CatalogKey::Manifest(target, seq),
                CatalogValue::ManifestRow(row),
            )?;
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // WriteSets + the commit protocol (§4.1.2)
    // ------------------------------------------------------------------

    /// Record that this transaction updated/deleted data of `table`
    /// (step 1 of validation). At [`ConflictGranularity::Table`] a single
    /// row per table is upserted; at `DataFile` granularity one row per
    /// modified data file. Inserts never call this — they cannot conflict.
    pub fn record_write_set(
        &self,
        txn: &mut CatalogTxn,
        table: TableId,
        modified_files: &[String],
        granularity: ConflictGranularity,
    ) -> CatalogResult<()> {
        let keys: Vec<CatalogKey> = match granularity {
            ConflictGranularity::Table => vec![CatalogKey::WriteSet(table, None)],
            ConflictGranularity::DataFile => modified_files
                .iter()
                .map(|f| CatalogKey::WriteSet(table, Some(f.clone())))
                .collect(),
        };
        for key in keys {
            let updated = match self.store.read(txn, &key)? {
                Some(CatalogValue::Updated(n)) => n + 1,
                _ => 1,
            };
            self.store.write(txn, key, CatalogValue::Updated(updated))?;
        }
        Ok(())
    }

    /// Commit a write transaction (steps 2–4 of §4.1.2).
    ///
    /// `manifests` maps each modified table to its transaction-manifest
    /// blob path. Under the commit lock the MVCC store validates the
    /// `WriteSets` upserts first-committer-wins; on success the manifest
    /// rows are inserted with the freshly assigned sequence number and the
    /// whole transaction commits atomically. A conflict rolls everything
    /// back — `WriteSets` and `Manifests` alike — and surfaces
    /// [`CatalogError::WriteWriteConflict`].
    pub fn commit_write(
        &self,
        txn: &mut CatalogTxn,
        manifests: &[(TableId, String)],
    ) -> CatalogResult<CommitOutcome> {
        self.commit_write_prepared(txn, manifests, || Ok(()))
    }

    /// [`Catalog::commit_write`] with a *prepare* stage: `prepare` runs on
    /// the committing thread after first-committer-wins validation passes
    /// but before the sequencer assigns a timestamp. The engine joins its
    /// pipelined manifest uploads there, so a slow upload never holds the
    /// global sequencer and a validation conflict skips the join
    /// entirely. A prepare failure aborts the transaction without
    /// consuming a sequence number.
    pub fn commit_write_prepared(
        &self,
        txn: &mut CatalogTxn,
        manifests: &[(TableId, String)],
        prepare: impl FnOnce() -> CatalogResult<()>,
    ) -> CatalogResult<CommitOutcome> {
        let txn_id = txn.id;
        let rows: Vec<(TableId, String)> = manifests.to_vec();
        self.store
            .commit_with_prepared(txn, prepare, move |commit_ts| {
                let seq = SequenceId(commit_ts.0);
                rows.into_iter()
                    .map(|(table, file)| {
                        (
                            CatalogKey::Manifest(table, seq),
                            Some(CatalogValue::ManifestRow(ManifestRow {
                                manifest_file: file,
                                txn_id,
                            })),
                        )
                    })
                    .collect()
            })
    }

    // ------------------------------------------------------------------
    // Checkpoints (§5.2)
    // ------------------------------------------------------------------

    /// Record a checkpoint covering `table` through `seq`.
    pub fn add_checkpoint(
        &self,
        txn: &mut CatalogTxn,
        table: TableId,
        seq: SequenceId,
        path: &str,
    ) -> CatalogResult<()> {
        self.store.write(
            txn,
            CatalogKey::Checkpoint(table, seq),
            CatalogValue::CheckpointRow(CheckpointRow {
                path: path.to_owned(),
            }),
        )
    }

    /// The most recent checkpoint visible to the transaction with
    /// `covered_seq <= upto`, if any.
    pub fn latest_checkpoint(
        &self,
        txn: &mut CatalogTxn,
        table: TableId,
        upto: SequenceId,
    ) -> CatalogResult<Option<(SequenceId, CheckpointRow)>> {
        let lo = CatalogKey::Checkpoint(table, SequenceId(0));
        let hi = CatalogKey::Checkpoint(table, upto);
        Ok(self
            .store
            .scan(txn, Included(&lo), Included(&hi))?
            .into_iter()
            .rev()
            .find_map(|(k, v)| match (k, v) {
                (CatalogKey::Checkpoint(_, seq), CatalogValue::CheckpointRow(row)) => {
                    Some((seq, row))
                }
                _ => None,
            }))
    }

    /// All checkpoints for a table visible to the transaction.
    pub fn checkpoints(
        &self,
        txn: &mut CatalogTxn,
        table: TableId,
    ) -> CatalogResult<Vec<(SequenceId, CheckpointRow)>> {
        let lo = CatalogKey::Checkpoint(table, SequenceId(0));
        let hi = CatalogKey::Checkpoint(table, SequenceId(u64::MAX));
        Ok(self
            .store
            .scan(txn, Included(&lo), Included(&hi))?
            .into_iter()
            .filter_map(|(k, v)| match (k, v) {
                (CatalogKey::Checkpoint(_, seq), CatalogValue::CheckpointRow(row)) => {
                    Some((seq, row))
                }
                _ => None,
            })
            .collect())
    }

    /// Export every committed catalog row visible right now — the payload
    /// of a catalog backup (§6.3: "Polaris secures a snapshot of all SQL
    /// Databases in the SQL FE by performing periodic Backup operations").
    pub fn export(&self) -> CatalogResult<CatalogImage> {
        let mut txn = self.begin(IsolationLevel::Snapshot);
        let rows = self.store.scan(&mut txn, Unbounded, Unbounded);
        self.abort(&mut txn);
        // Key order puts every `Table` row before the rows of its table, and
        // the snapshot's own clock is the image's: `now()` may already be
        // past it, and an image claiming a clock whose rows it lacks would
        // lose them.
        let mut image = CatalogImage::default();
        image.apply(txn.snapshot.0, rows?.into_iter().map(|(k, v)| (k, Some(v))));
        Ok(image)
    }

    /// Rebuild a catalog from an exported image. Only a fresh catalog takes
    /// one (restore-on-restart); any other returns `AlreadyExists`.
    pub fn import(&self, image: &CatalogImage) -> CatalogResult<()> {
        self.import_owned(image.clone())
    }

    /// [`Catalog::import`] of an image the caller is done with: each row
    /// moves into the catalog as one write — recovery folds the whole log
    /// tail into the image it imports. Afterwards the commit clock stands at
    /// the image's, and the table-id and transaction-id allocators are past
    /// every id its rows hold: a `Manifests` row carries its transaction's
    /// id, as do the names of the files it lists.
    pub fn import_owned(&self, image: CatalogImage) -> CatalogResult<()> {
        if self.now() != Timestamp(0) {
            return Err(CatalogError::AlreadyExists {
                what: "catalog rows (an image imports into a fresh catalog)".to_owned(),
            });
        }
        let mut txn = self.begin(IsolationLevel::Snapshot);
        let (mut max_table, mut max_txn) = (0u64, 0u64);
        for (key, value) in image.rows {
            match (&key, &value) {
                (CatalogKey::Table(id), _) => max_table = max_table.max(id.0),
                (_, CatalogValue::ManifestRow(row)) => max_txn = max_txn.max(row.txn_id.0),
                _ => {}
            }
            self.store.write(&mut txn, key, value)?;
        }
        self.commit(&mut txn)?;
        self.store.advance_clock(Timestamp(image.clock));
        self.advance_ids(TableId(max_table), TxnId(max_txn));
        Ok(())
    }

    /// Move the table-id and transaction-id allocators past `table` and
    /// `txn` (see [`MvccStore::advance_txn_ids`]), so ids allocated
    /// afterwards are above both. Must not race allocations: it runs while
    /// a catalog is rebuilt, before traffic. Only ids the durable state
    /// names are passed: a transaction in flight at a crash may have used a
    /// higher one, which the rebuilt catalog hands out again.
    pub fn advance_ids(&self, table: TableId, txn: TxnId) {
        self.next_table_id.fetch_max(table.0 + 1, Ordering::SeqCst);
        self.store.advance_txn_ids(txn)
    }

    /// Vacuum old catalog versions up to the GC watermark.
    pub fn vacuum(&self) -> usize {
        match self.min_active_snapshot() {
            Some(watermark) => self.store.vacuum(watermark),
            None => self.store.vacuum(self.now()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_with_table(name: &str) -> (Catalog, TableId) {
        let c = Catalog::new();
        let mut tx = c.begin(IsolationLevel::Snapshot);
        let id = c.create_table(&mut tx, name, "{}", "lake/t", &[]).unwrap();
        c.commit(&mut tx).unwrap();
        (c, id)
    }

    #[test]
    fn create_and_lookup_table() {
        let (c, id) = catalog_with_table("t1");
        let mut tx = c.begin(IsolationLevel::Snapshot);
        let meta = c.table_by_name(&mut tx, "t1").unwrap();
        assert_eq!(meta.id, id);
        assert_eq!(c.table_by_id(&mut tx, id).unwrap().name, "t1");
        assert_eq!(c.list_tables(&mut tx).unwrap().len(), 1);
        assert!(matches!(
            c.table_by_name(&mut tx, "ghost"),
            Err(CatalogError::NotFound { .. })
        ));
    }

    #[test]
    fn duplicate_table_rejected() {
        let (c, _) = catalog_with_table("t1");
        let mut tx = c.begin(IsolationLevel::Snapshot);
        assert!(matches!(
            c.create_table(&mut tx, "t1", "{}", "lake/t", &[]),
            Err(CatalogError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn uncommitted_table_invisible_to_others() {
        let c = Catalog::new();
        let mut tx1 = c.begin(IsolationLevel::Snapshot);
        c.create_table(&mut tx1, "pending", "{}", "lake/p", &[])
            .unwrap();
        let mut tx2 = c.begin(IsolationLevel::Snapshot);
        assert!(c.table_by_name(&mut tx2, "pending").is_err());
        // a DDL abort leaves nothing behind
        c.abort(&mut tx1);
        let mut tx3 = c.begin(IsolationLevel::Snapshot);
        assert!(c.table_by_name(&mut tx3, "pending").is_err());
    }

    #[test]
    fn drop_table_removes_bindings() {
        let (c, id) = catalog_with_table("t1");
        let mut tx = c.begin(IsolationLevel::Snapshot);
        assert_eq!(c.drop_table(&mut tx, "t1").unwrap().id, id);
        c.commit(&mut tx).unwrap();
        let mut tx = c.begin(IsolationLevel::Snapshot);
        assert!(c.table_by_name(&mut tx, "t1").is_err());
        assert!(c.table_by_id(&mut tx, id).is_err());
    }

    #[test]
    fn commit_write_assigns_sequence_and_inserts_manifest_rows() {
        let (c, id) = catalog_with_table("t1");
        let mut tx = c.begin(IsolationLevel::Snapshot);
        let outcome = c
            .commit_write(&mut tx, &[(id, "lake/t/_log/x1.json".to_owned())])
            .unwrap();
        let seq = SequenceId(outcome.commit_ts.0);
        let mut r = c.begin(IsolationLevel::Snapshot);
        let manifests = c.visible_manifests(&mut r, id).unwrap();
        assert_eq!(manifests.len(), 1);
        assert_eq!(manifests[0].0, seq);
        assert_eq!(manifests[0].1.manifest_file, "lake/t/_log/x1.json");
        assert_eq!(manifests[0].1.txn_id, tx.id);
    }

    #[test]
    fn multi_table_write_commits_atomically() {
        let c = Catalog::new();
        let mut ddl = c.begin(IsolationLevel::Snapshot);
        let a = c.create_table(&mut ddl, "a", "{}", "lake/a", &[]).unwrap();
        let b = c.create_table(&mut ddl, "b", "{}", "lake/b", &[]).unwrap();
        c.commit(&mut ddl).unwrap();

        let mut tx = c.begin(IsolationLevel::Snapshot);
        let outcome = c
            .commit_write(&mut tx, &[(a, "ma".to_owned()), (b, "mb".to_owned())])
            .unwrap();
        let mut r = c.begin(IsolationLevel::Snapshot);
        // same sequence for both tables: one logical commit
        assert_eq!(
            c.visible_manifests(&mut r, a).unwrap()[0].0,
            SequenceId(outcome.commit_ts.0)
        );
        assert_eq!(
            c.visible_manifests(&mut r, b).unwrap()[0].0,
            SequenceId(outcome.commit_ts.0)
        );
    }

    #[test]
    fn ww_conflict_at_table_granularity() {
        let (c, id) = catalog_with_table("t1");
        let mut t1 = c.begin(IsolationLevel::Snapshot);
        let mut t2 = c.begin(IsolationLevel::Snapshot);
        c.record_write_set(&mut t1, id, &[], ConflictGranularity::Table)
            .unwrap();
        c.record_write_set(&mut t2, id, &[], ConflictGranularity::Table)
            .unwrap();
        c.commit_write(&mut t1, &[(id, "m1".to_owned())]).unwrap();
        let err = c
            .commit_write(&mut t2, &[(id, "m2".to_owned())])
            .unwrap_err();
        assert!(err.is_retryable_conflict());
        // loser's manifest row must not exist
        let mut r = c.begin(IsolationLevel::Snapshot);
        assert_eq!(c.visible_manifests(&mut r, id).unwrap().len(), 1);
    }

    #[test]
    fn no_conflict_on_disjoint_files_at_file_granularity() {
        let (c, id) = catalog_with_table("t1");
        let mut t1 = c.begin(IsolationLevel::Snapshot);
        let mut t2 = c.begin(IsolationLevel::Snapshot);
        c.record_write_set(&mut t1, id, &["f1".into()], ConflictGranularity::DataFile)
            .unwrap();
        c.record_write_set(&mut t2, id, &["f2".into()], ConflictGranularity::DataFile)
            .unwrap();
        c.commit_write(&mut t1, &[(id, "m1".to_owned())]).unwrap();
        c.commit_write(&mut t2, &[(id, "m2".to_owned())]).unwrap();
        let mut r = c.begin(IsolationLevel::Snapshot);
        assert_eq!(c.visible_manifests(&mut r, id).unwrap().len(), 2);
    }

    #[test]
    fn conflict_on_same_file_at_file_granularity() {
        let (c, id) = catalog_with_table("t1");
        let mut t1 = c.begin(IsolationLevel::Snapshot);
        let mut t2 = c.begin(IsolationLevel::Snapshot);
        for t in [&mut t1, &mut t2] {
            c.record_write_set(t, id, &["f1".into()], ConflictGranularity::DataFile)
                .unwrap();
        }
        c.commit_write(&mut t1, &[(id, "m1".to_owned())]).unwrap();
        assert!(c.commit_write(&mut t2, &[(id, "m2".to_owned())]).is_err());
    }

    #[test]
    fn inserts_never_conflict() {
        // Two concurrent pure-insert transactions on the same table: no
        // WriteSets rows recorded, both commit.
        let (c, id) = catalog_with_table("t1");
        let mut t1 = c.begin(IsolationLevel::Snapshot);
        let mut t2 = c.begin(IsolationLevel::Snapshot);
        c.commit_write(&mut t1, &[(id, "m1".to_owned())]).unwrap();
        c.commit_write(&mut t2, &[(id, "m2".to_owned())]).unwrap();
        let mut r = c.begin(IsolationLevel::Snapshot);
        let rows = c.visible_manifests(&mut r, id).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0 < rows[1].0, "sequences reflect commit order");
    }

    #[test]
    fn manifests_between_is_exclusive_inclusive() {
        let (c, id) = catalog_with_table("t1");
        let mut seqs = Vec::new();
        for i in 0..4 {
            let mut tx = c.begin(IsolationLevel::Snapshot);
            let o = c.commit_write(&mut tx, &[(id, format!("m{i}"))]).unwrap();
            seqs.push(SequenceId(o.commit_ts.0));
        }
        let mut r = c.begin(IsolationLevel::Snapshot);
        let got = c.manifests_between(&mut r, id, seqs[0], seqs[2]).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, seqs[1]);
        assert_eq!(got[1].0, seqs[2]);
    }

    #[test]
    fn snapshot_excludes_later_commits() {
        let (c, id) = catalog_with_table("t1");
        let mut w1 = c.begin(IsolationLevel::Snapshot);
        c.commit_write(&mut w1, &[(id, "m1".to_owned())]).unwrap();
        let mut reader = c.begin(IsolationLevel::Snapshot);
        let mut w2 = c.begin(IsolationLevel::Snapshot);
        c.commit_write(&mut w2, &[(id, "m2".to_owned())]).unwrap();
        // reader's snapshot predates m2
        assert_eq!(c.visible_manifests(&mut reader, id).unwrap().len(), 1);
    }

    #[test]
    fn checkpoints_latest_lookup() {
        let (c, id) = catalog_with_table("t1");
        let mut tx = c.begin(IsolationLevel::Snapshot);
        c.add_checkpoint(&mut tx, id, SequenceId(5), "ck5").unwrap();
        c.add_checkpoint(&mut tx, id, SequenceId(9), "ck9").unwrap();
        c.commit(&mut tx).unwrap();
        let mut r = c.begin(IsolationLevel::Snapshot);
        let (seq, row) = c
            .latest_checkpoint(&mut r, id, SequenceId(100))
            .unwrap()
            .unwrap();
        assert_eq!((seq, row.path.as_str()), (SequenceId(9), "ck9"));
        let (seq, _) = c
            .latest_checkpoint(&mut r, id, SequenceId(7))
            .unwrap()
            .unwrap();
        assert_eq!(seq, SequenceId(5));
        assert!(c
            .latest_checkpoint(&mut r, id, SequenceId(4))
            .unwrap()
            .is_none());
        assert_eq!(c.checkpoints(&mut r, id).unwrap().len(), 2);
    }

    #[test]
    fn clone_copies_manifest_rows() {
        let (c, src) = catalog_with_table("src");
        let mut seqs = Vec::new();
        for i in 0..3 {
            let mut tx = c.begin(IsolationLevel::Snapshot);
            let o = c.commit_write(&mut tx, &[(src, format!("m{i}"))]).unwrap();
            seqs.push(SequenceId(o.commit_ts.0));
        }
        let mut tx = c.begin(IsolationLevel::Snapshot);
        let dst = c.allocate_table_id();
        // clone as of the second commit
        let n = c
            .copy_manifests_for_clone(&mut tx, src, dst, seqs[1])
            .unwrap();
        assert_eq!(n, 2);
        c.commit(&mut tx).unwrap();
        let mut r = c.begin(IsolationLevel::Snapshot);
        let cloned = c.visible_manifests(&mut r, dst).unwrap();
        assert_eq!(cloned.len(), 2);
        // source evolves independently
        assert_eq!(c.visible_manifests(&mut r, src).unwrap().len(), 3);
    }

    #[test]
    fn historical_snapshot_via_begin_at() {
        let (c, id) = catalog_with_table("t1");
        let mut w = c.begin(IsolationLevel::Snapshot);
        let first = c
            .commit_write(&mut w, &[(id, "m1".to_owned())])
            .unwrap()
            .commit_ts;
        let mut w = c.begin(IsolationLevel::Snapshot);
        c.commit_write(&mut w, &[(id, "m2".to_owned())]).unwrap();
        let mut hist = c.begin_at(first);
        assert_eq!(c.visible_manifests(&mut hist, id).unwrap().len(), 1);
    }

    #[test]
    fn vacuum_runs() {
        let (c, id) = catalog_with_table("t1");
        for _ in 0..5 {
            let mut tx = c.begin(IsolationLevel::Snapshot);
            c.record_write_set(&mut tx, id, &[], ConflictGranularity::Table)
                .unwrap();
            c.commit_write(&mut tx, &[(id, "m".to_owned())]).unwrap();
        }
        let removed = c.vacuum();
        assert!(
            removed >= 4,
            "old WriteSets versions reclaimed, got {removed}"
        );
    }

    fn manifest(file: &str, txn: u64) -> CatalogValue {
        CatalogValue::ManifestRow(ManifestRow {
            manifest_file: file.to_owned(),
            txn_id: TxnId(txn),
        })
    }

    #[test]
    fn apply_upserts_removes_and_drops_a_tables_rows() {
        let (t, u) = (TableId(1001), TableId(1002));
        let meta = |id: TableId, name: &str| TableMeta {
            id,
            name: name.to_owned(),
            schema_json: "[]".to_owned(),
            data_root: format!("lake/{name}"),
            cluster_by: Vec::new(),
        };
        let mut image = CatalogImage::default();
        image.apply(
            1,
            [
                (CatalogKey::TableName("t".into()), Some(CatalogValue::Id(t))),
                (
                    CatalogKey::Table(t),
                    Some(CatalogValue::Meta(Box::new(meta(t, "t")))),
                ),
                (CatalogKey::TableName("u".into()), Some(CatalogValue::Id(u))),
                (
                    CatalogKey::Table(u),
                    Some(CatalogValue::Meta(Box::new(meta(u, "u")))),
                ),
                (
                    CatalogKey::Manifest(t, SequenceId(1)),
                    Some(manifest("m1", 7)),
                ),
                (
                    CatalogKey::Manifest(u, SequenceId(1)),
                    Some(manifest("n1", 7)),
                ),
                (
                    CatalogKey::Checkpoint(u, SequenceId(1)),
                    Some(CatalogValue::CheckpointRow(CheckpointRow {
                        path: "c".into(),
                    })),
                ),
                (
                    CatalogKey::WriteSet(t, None),
                    Some(CatalogValue::Updated(1)),
                ),
            ],
        );
        assert_eq!(image.clock, 1);
        assert_eq!(image.rows.len(), 7, "every row but the WriteSets row");
        image.apply(
            2,
            [
                (CatalogKey::Manifest(t, SequenceId(1)), None),
                (CatalogKey::TableName("u".into()), None),
                (CatalogKey::Table(u), None),
                (
                    CatalogKey::Manifest(u, SequenceId(2)),
                    Some(manifest("n2", 8)),
                ),
            ],
        );
        assert_eq!(image.clock, 2);
        let keys: Vec<&CatalogKey> = image.rows.keys().collect();
        assert_eq!(
            keys,
            [&CatalogKey::TableName("t".into()), &CatalogKey::Table(t)],
            "a delete removes its row; a dropped table's rows leave with it, later ones too"
        );
    }

    #[test]
    fn export_is_the_live_rows_and_imports_into_a_fresh_catalog() {
        let (c, t) = catalog_with_table("t");
        let mut tx = c.begin(IsolationLevel::Snapshot);
        let u = c.create_table(&mut tx, "u", "{}", "lake/u", &[]).unwrap();
        c.commit(&mut tx).unwrap();
        for id in [t, u] {
            let mut tx = c.begin(IsolationLevel::Snapshot);
            c.record_write_set(&mut tx, id, &[], ConflictGranularity::Table)
                .unwrap();
            c.commit_write(&mut tx, &[(id, format!("m{}", id.0))])
                .unwrap();
        }
        let mut tx = c.begin(IsolationLevel::Snapshot);
        c.add_checkpoint(&mut tx, t, SequenceId(3), "ck").unwrap();
        c.drop_table(&mut tx, "u").unwrap();
        c.commit(&mut tx).unwrap();

        let image = c.export().unwrap();
        assert_eq!(image.clock, c.now().0);
        let keys: Vec<&CatalogKey> = image.rows.keys().collect();
        assert_eq!(
            keys,
            [
                &CatalogKey::TableName("t".into()),
                &CatalogKey::Table(t),
                &CatalogKey::Manifest(t, SequenceId(3)),
                &CatalogKey::Checkpoint(t, SequenceId(3)),
            ],
            "no WriteSets rows, nothing of the dropped table"
        );

        let fresh = Catalog::new();
        fresh.import(&image).unwrap();
        assert_eq!(fresh.export().unwrap(), image);
        assert!(
            fresh.allocate_table_id() > t,
            "table ids move past the image's"
        );
        let Some(CatalogValue::ManifestRow(row)) =
            image.rows.get(&CatalogKey::Manifest(t, SequenceId(3)))
        else {
            panic!("t's manifest row");
        };
        assert!(fresh.begin(IsolationLevel::Snapshot).id > row.txn_id);
        assert!(matches!(
            fresh.import(&image),
            Err(CatalogError::AlreadyExists { .. })
        ));
    }
}
