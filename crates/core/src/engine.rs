//! The running Polaris system: FE catalog, DCP pool, object store, and
//! per-table BE snapshot caches.

use crate::recovery::{self, CommitLogWriter, RecoveryReport};
use crate::schema_json::{schema_from_json, schema_to_json};
use crate::sto::{self, StoState};
use crate::telemetry::EngineTelemetry;
use crate::{EngineConfig, PolarisError, PolarisResult, Session, Transaction};
use parking_lot::{Mutex, RwLock};
use polaris_catalog::{Catalog, CatalogTxn, IsolationLevel, TableId, TableMeta};
use polaris_columnar::Schema;
use polaris_dcp::ComputePool;
use polaris_exec::SystemSchema;
use polaris_lst::{Checkpoint, Manifest, SequenceId, SnapshotCache, TableSnapshot};
use polaris_obs::{
    CacheMeter, CatalogMeter, Counter, MetricName, MetricsRegistry, MetricsSnapshot, RecoveryMeter,
    ScanMeter, SlowLog, StoMeter, Tracer, SCAN_COUNTERS,
};
use polaris_store::{BlobPath, MemoryStore, ObjectStore, StatsStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The Polaris engine: one per "database".
///
/// Architectural invariant (§3.3): state never crosses component
/// boundaries. The catalog owns logical metadata and transactional state;
/// the object store owns data and physical metadata; the caches here are
/// disposable BE-side accelerations whose loss cannot affect consistency.
///
/// ```
/// use polaris_core::PolarisEngine;
///
/// let engine = PolarisEngine::in_memory();
/// let mut session = engine.session();
/// session.execute("CREATE TABLE t (id BIGINT)").unwrap();
/// session.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
/// let rows = session.query("SELECT COUNT(*) AS n FROM t").unwrap();
/// assert_eq!(rows.row(0)[0], polaris_core::Value::Int(3));
/// ```
pub struct PolarisEngine {
    config: EngineConfig,
    catalog: Catalog,
    store: Arc<dyn ObjectStore>,
    pool: Arc<ComputePool>,
    caches: RwLock<HashMap<TableId, Arc<SnapshotCache>>>,
    /// Parsed table schemas. A table's schema never changes and its id is
    /// never reused, so an entry only ever leaves with its table.
    schemas: RwLock<HashMap<TableId, Schema>>,
    /// What the STO remembers between ticks (publish and GC-fold
    /// watermarks, per-table blob fates) — like `caches`, disposable.
    sto: Mutex<StoState>,
    /// Engine-wide metrics registry: every layer (store, cache, catalog,
    /// pool, scan) emits into this one instance.
    metrics: Arc<MetricsRegistry>,
    /// Engine-wide trace flight recorder; every layer opens spans on
    /// cloned handles of this tracer.
    tracer: Tracer,
    /// Bounded ring of statements/transactions over the slow threshold.
    slow_log: Arc<SlowLog>,
    /// Continuous-telemetry runtime (harvester + watchdog + endpoint).
    telemetry: EngineTelemetry,
    /// Durable commit-log writer; `Some` iff every commit is logged — an
    /// engine built by [`PolarisEngine::open`] with
    /// [`EngineConfig::commit_log_enabled`].
    durability: Option<Arc<CommitLogWriter>>,
    /// What the last [`PolarisEngine::open`] replayed; `None` for engines
    /// built via [`PolarisEngine::new`].
    recovery: Mutex<Option<RecoveryReport>>,
    /// Live and retired transaction contexts; locked once when a
    /// transaction begins and once when it drops.
    txns: Mutex<TxnDirectory>,
    /// Registry handles every statement reads or bumps, resolved once
    /// instead of by name per statement.
    pub(crate) counters: StatementCounters,
    /// Registry handles an STO tick records into, resolved likewise.
    pub(crate) sto_meter: StoMeter,
    /// Engine-wide stable statement-id source; every profiled statement
    /// draws one, stamping its root trace span and its [`polaris_obs::QueryProfile`]
    /// (kept by the slow log when slow) so `polaris.slow_log` joins to
    /// `polaris.trace_spans`.
    next_query_id: AtomicU64,
    /// The `polaris.*` virtual-table registry (providers hold `Weak`
    /// engine references, like the telemetry rules).
    system_tables: SystemSchema,
}

/// Execution stats of one live user transaction (the
/// `polaris.transactions` row payload beyond what the catalog knows). The
/// transaction updates them without a lock; a system scan reads them
/// through the directory's handle. Statistics only: `Relaxed` throughout.
#[derive(Debug, Default)]
pub(crate) struct TxnStat {
    /// Set once the commit protocol has started.
    pub(crate) committing: AtomicBool,
    /// Statements executed so far.
    pub(crate) statements: AtomicU64,
    /// Distinct tables touched (read or written).
    pub(crate) tables_touched: AtomicU64,
    /// Bytes allocated across the transaction's statements.
    pub(crate) alloc_bytes: AtomicU64,
    /// Allocation count across the transaction's statements.
    pub(crate) allocs: AtomicU64,
}

impl TxnStat {
    fn reset(&self) {
        self.committing.store(false, Ordering::Relaxed);
        for n in [
            &self.statements,
            &self.tables_touched,
            &self.alloc_bytes,
            &self.allocs,
        ] {
            n.store(0, Ordering::Relaxed);
        }
    }
}

/// A reusable transaction context: the per-table state map, statement scan
/// meter and live-stats cell recycled between transactions.
pub(crate) struct TxnContext {
    pub(crate) tables: HashMap<TableId, crate::txn::TxnTable>,
    pub(crate) scan_meter: Arc<ScanMeter>,
    pub(crate) stat: Arc<TxnStat>,
}

/// Running transactions' stats by txn id (what `polaris.transactions`
/// reads) beside the contexts finished transactions handed back, so the
/// next `begin` reuses their capacity instead of reallocating.
#[derive(Default)]
struct TxnDirectory {
    live: HashMap<u64, Arc<TxnStat>>,
    retired: Vec<TxnContext>,
}

/// The registry counters a statement touches.
pub(crate) struct StatementCounters {
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) orphaned_manifests: Counter,
    /// The `exec.*` counters a statement's scan meter folds into.
    pub(crate) exec: [Counter; SCAN_COUNTERS],
}

/// Snapshots retained per table in each BE snapshot cache.
const SNAPSHOT_CACHE_CAPACITY: usize = 8;

/// Retired-context pool bound: beyond this many parked contexts, extras
/// are simply dropped. Sized for a healthy concurrent-session count.
const TXN_CONTEXT_POOL_MAX: usize = 32;

/// Crate version baked into `build_info`.
const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git revision baked in at compile time via the `POLARIS_GIT_SHA`
/// environment variable; `"unknown"` when the build did not set it.
const BUILD_GIT: &str = match option_env!("POLARIS_GIT_SHA") {
    Some(sha) => sha,
    None => "unknown",
};

/// Register the constant `build_info{version,git}` gauge (value 1, the
/// Prometheus convention for build metadata).
fn register_build_info(metrics: &MetricsRegistry) {
    let name = MetricName::new("build_info")
        .and_then(|n| n.with_label("version", BUILD_VERSION))
        .and_then(|n| n.with_label("git", BUILD_GIT));
    if let Ok(name) = name {
        metrics.gauge(&name.registry_key()).set(1);
    }
}

impl PolarisEngine {
    /// Build an engine over the given store and compute pool. It logs no
    /// commit, whatever [`EngineConfig::commit_log_enabled`] says: the
    /// durable entry point is [`PolarisEngine::open`].
    pub fn new(
        store: Arc<dyn ObjectStore>,
        pool: Arc<ComputePool>,
        config: EngineConfig,
    ) -> Arc<Self> {
        Self::build(store, pool, config, false)
    }

    /// The one constructor. `durable` builds the commit-log writer, which
    /// `open` hooks into the catalog once recovery is done. Telemetry rules
    /// and system-table providers point back at the engine, so it is built
    /// cyclically: they get the `Weak` that upgrades once this returns.
    fn build(
        store: Arc<dyn ObjectStore>,
        pool: Arc<ComputePool>,
        config: EngineConfig,
        durable: bool,
    ) -> Arc<Self> {
        let metrics = MetricsRegistry::new();
        let tracer = if config.trace_capacity > 0 {
            Tracer::with_capacity(config.trace_capacity)
        } else {
            Tracer::disabled()
        };
        // Wrap the store so every blob operation is counted in the shared
        // registry; `Arc<dyn ObjectStore>` itself implements `ObjectStore`,
        // so the wrapper composes with whatever the caller handed us.
        let mut stats_store = StatsStore::with_registry(store, &metrics);
        stats_store.set_tracer(tracer.clone());
        let store: Arc<dyn ObjectStore> = Arc::new(stats_store);
        pool.meter().adopt_into(&metrics);
        pool.bind_tracer(&tracer);
        let mut catalog_meter = CatalogMeter::from_registry(&metrics);
        catalog_meter.tracer = tracer.clone();
        let catalog = Catalog::with_meter(catalog_meter);
        catalog.set_group_commit(
            config.group_commit_max_batch,
            std::time::Duration::from_micros(config.group_commit_window_us),
        );
        let slow_log = Arc::new(SlowLog::new(
            crate::telemetry::SLOW_LOG_CAPACITY,
            config.slow_statement_ms.saturating_mul(1_000_000),
        ));
        let durability = durable.then(|| {
            let mut meter = RecoveryMeter::from_registry(&metrics);
            meter.tracer = tracer.clone();
            Arc::new(CommitLogWriter::new(Arc::clone(&store), &config, meter))
        });
        let counters = StatementCounters {
            cache_hits: metrics.counter("lst.cache.hits"),
            cache_misses: metrics.counter("lst.cache.misses"),
            orphaned_manifests: metrics.counter("store.orphaned_manifests"),
            exec: ScanMeter::registry_counters(&metrics),
        };
        let sto_meter = StoMeter::from_registry(&metrics);
        register_build_info(&metrics);
        Arc::new_cyclic(|weak| PolarisEngine {
            telemetry: crate::telemetry::start(weak, &config, &metrics, &tracer, &catalog),
            system_tables: crate::system_tables::build(weak),
            config,
            catalog,
            store,
            pool,
            caches: RwLock::new(HashMap::new()),
            schemas: RwLock::new(HashMap::new()),
            sto: Mutex::new(StoState::default()),
            metrics,
            tracer,
            slow_log,
            durability,
            recovery: Mutex::new(None),
            txns: Mutex::new(TxnDirectory::default()),
            counters,
            sto_meter,
            next_query_id: AtomicU64::new(1),
        })
    }

    /// All-in-memory engine with a small default topology — the quickest
    /// way to get a working database for tests and examples.
    pub fn in_memory() -> Arc<Self> {
        let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
        pool.add_nodes(polaris_dcp::WorkloadClass::System, 2, 2);
        PolarisEngine::new(
            Arc::new(MemoryStore::new()),
            pool,
            EngineConfig::for_testing(),
        )
    }

    /// Open an engine with durability: recover the catalog from the
    /// durable checkpoint + commit-log tail under `store`, then install
    /// the commit-log hook so every later sequencer batch is logged
    /// before it publishes. The durable entry point — `kill -9` then
    /// `open` over the same store loses nothing that was acknowledged.
    ///
    /// With [`EngineConfig::commit_log_enabled`] false this is just
    /// [`PolarisEngine::new`]: nothing is replayed, nothing is logged.
    pub fn open(
        store: Arc<dyn ObjectStore>,
        pool: Arc<ComputePool>,
        config: EngineConfig,
    ) -> PolarisResult<Arc<Self>> {
        let engine = Self::build(store, pool, config, config.commit_log_enabled);
        if let Some(writer) = &engine.durability {
            let report = recovery::recover(writer, &engine.catalog)?;
            *engine.recovery.lock() = Some(report);
            // Only now: a hook live during the import would log the
            // recovered rows again, into a segment being read.
            let writer = Arc::clone(writer);
            engine
                .catalog
                .set_commit_log(Some(Arc::new(move |records| writer.append(records))));
        }
        Ok(engine)
    }

    /// Post-commit durability maintenance: write a checkpoint generation
    /// (and prune covered log segments) when enough batches have been
    /// logged since the last one. Called on every successful commit;
    /// a checkpoint failure is surfaced as a trace event, never as a
    /// commit failure — the log alone already guarantees durability.
    pub(crate) fn maybe_checkpoint_commit_log(&self) {
        if let Some(writer) = &self.durability {
            if writer.take_checkpoint_due() {
                if let Err(e) = writer.checkpoint(&self.catalog) {
                    self.tracer.instant(
                        "wal.checkpoint_error",
                        vec![("error", e.to_string().into())],
                    );
                }
            }
        }
    }

    /// The commit-log writer; `Some` iff this engine logs its commits
    /// (tests use it to force checkpoints at known points).
    pub fn commit_log_writer(&self) -> Option<&Arc<CommitLogWriter>> {
        self.durability.as_ref()
    }

    /// What [`PolarisEngine::open`] recovered, if this engine was opened
    /// with durability enabled.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery.lock().clone()
    }

    /// Open a session.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }

    /// Begin an explicit transaction at the default isolation level.
    pub fn begin(self: &Arc<Self>) -> Transaction {
        Transaction::begin(Arc::clone(self), IsolationLevel::default())
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The system catalog (SQL FE state).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The object store (OneLake).
    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    /// The compute pool (DCP topology).
    pub fn pool(&self) -> &Arc<ComputePool> {
        &self.pool
    }

    /// The engine-wide metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Point-in-time snapshot of every metric the engine has emitted,
    /// probe gauges (uptime, queue depth, harvester ticks) refreshed first
    /// so the snapshot — and `polaris.metrics`, which is derived from it —
    /// carries their current values.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.refresh_probes();
        self.metrics.snapshot()
    }

    /// Draw the next engine-wide stable statement id (never 0).
    pub(crate) fn next_query_id(&self) -> u64 {
        self.next_query_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The `polaris.*` system-table registry.
    ///
    /// Providers snapshot engine state into columnar batches without
    /// touching catalog transaction state — a system scan never pins the
    /// GC watermark and never blocks a commit.
    pub fn system_tables(&self) -> &SystemSchema {
        &self.system_tables
    }

    /// A live transaction's stats cell, if it is still running.
    pub(crate) fn txn_stat_get(&self, id: u64) -> Option<Arc<TxnStat>> {
        self.txns.lock().live.get(&id).cloned()
    }

    /// The engine-wide trace flight recorder.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The context of transaction `id`: a retired one (or a fresh one),
    /// registered in the live-stats directory behind
    /// `polaris.transactions` until [`Self::recycle_txn_context`]. A pooled
    /// scan meter is zeroed in place when this engine holds the only
    /// reference; one still shared (e.g. pinned by a profile reader) is
    /// replaced rather than mutated under it.
    pub(crate) fn take_txn_context(&self, id: u64) -> TxnContext {
        let mut txns = self.txns.lock();
        let mut ctx = txns.retired.pop().unwrap_or_else(|| TxnContext {
            tables: HashMap::new(),
            scan_meter: Arc::new(ScanMeter::with_tracer(self.tracer.clone())),
            stat: Arc::default(),
        });
        // Zeroed here, not when it was retired: its last owner was still
        // holding it then.
        ctx.stat.reset();
        txns.live.insert(id, Arc::clone(&ctx.stat));
        drop(txns);
        match Arc::get_mut(&mut ctx.scan_meter) {
            Some(m) => m.reset(),
            None => ctx.scan_meter = Arc::new(ScanMeter::with_tracer(self.tracer.clone())),
        }
        ctx
    }

    /// Take finished transaction `id` out of the live-stats directory and
    /// park its context for reuse. The table map is cleared *here*, before
    /// pooling: its entries pin base snapshot `Arc`s, and releasing them
    /// promptly is what lets the snapshot cache extend the latest snapshot
    /// in place on the next commit.
    pub(crate) fn recycle_txn_context(&self, id: u64, mut ctx: TxnContext) {
        ctx.tables.clear();
        let mut txns = self.txns.lock();
        txns.live.remove(&id);
        if txns.retired.len() < TXN_CONTEXT_POOL_MAX {
            txns.retired.push(ctx);
        }
    }

    /// The engine's slow statement/transaction log.
    pub fn slow_log(&self) -> &Arc<SlowLog> {
        &self.slow_log
    }

    /// The continuous-telemetry runtime.
    pub(crate) fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// Create a table (auto-commit DDL).
    pub fn create_table(&self, name: &str, schema: &Schema) -> PolarisResult<TableId> {
        self.create_table_clustered(name, schema, &[])
    }

    /// Create a table whose inserts Z-order-cluster rows by `cluster_by`
    /// (§2.3): each write sorts its rows by the interleaved key of these
    /// columns before splitting into data files, so the per-file min/max
    /// statistics become tight and range predicates prune aggressively.
    ///
    /// Cluster keys must be `Int64`, `Float64` or `Date32` columns; up to
    /// four keys are supported.
    pub fn create_table_clustered(
        &self,
        name: &str,
        schema: &Schema,
        cluster_by: &[String],
    ) -> PolarisResult<TableId> {
        if schema.is_empty() {
            return Err(PolarisError::invalid("a table needs at least one column"));
        }
        if cluster_by.len() > 4 {
            return Err(PolarisError::invalid("at most 4 cluster keys"));
        }
        for key in cluster_by {
            let field = schema
                .field(key)
                .map_err(|_| PolarisError::invalid(format!("unknown cluster key {key}")))?;
            match field.data_type {
                polaris_columnar::DataType::Int64
                | polaris_columnar::DataType::Float64
                | polaris_columnar::DataType::Date32 => {}
                other => {
                    return Err(PolarisError::invalid(format!(
                        "cluster key {key} has non-orderable-numeric type {other}"
                    )))
                }
            }
        }
        let mut txn = self.catalog.begin(IsolationLevel::default());
        let data_root = format!("lake/{name}");
        let id = match self.catalog.create_table(
            &mut txn,
            name,
            &schema_to_json(schema),
            &data_root,
            cluster_by,
        ) {
            Ok(id) => id,
            Err(e) => {
                self.catalog.abort(&mut txn);
                return Err(e.into());
            }
        };
        self.catalog.commit(&mut txn)?;
        self.maybe_checkpoint_commit_log();
        Ok(id)
    }

    /// Back up the SQL FE catalog — logical metadata, the full Manifests
    /// chain and checkpoint rows — to a blob in the lake (§6.3). Together
    /// with a durable store backend this makes the whole database
    /// restartable: data and physical metadata already live in the store.
    /// An engine with a commit log has that backup already, kept current
    /// per commit: its checkpoint blob plus the log ([`PolarisEngine::open`]).
    pub fn backup_catalog(&self, path: &str) -> PolarisResult<()> {
        let mut frame = Vec::new();
        recovery::encode_base_frame(self.catalog.export()?, &mut frame)
            .map_err(PolarisError::invalid)?;
        self.store.put(
            &BlobPath::new(path)?,
            frame.into(),
            polaris_store::Stamp::SYSTEM,
        )?;
        Ok(())
    }

    /// Open an engine from a catalog backup previously written by
    /// [`backup_catalog`](PolarisEngine::backup_catalog): a restart. The
    /// backup is folded and imported as recovery imports its image, so the
    /// clock and the table-id and transaction-id allocators move past
    /// everything it holds and new writes never reuse a restored file name.
    /// A torn or corrupt backup fails its frame checksum and is refused.
    pub fn restore(
        store: Arc<dyn ObjectStore>,
        pool: Arc<ComputePool>,
        config: EngineConfig,
        backup_path: &str,
    ) -> PolarisResult<Arc<Self>> {
        let raw = store.get(&BlobPath::new(backup_path)?)?;
        let image = recovery::fold_checkpoint(&raw).ok_or_else(|| {
            PolarisError::invalid(format!("catalog backup {backup_path} is torn or corrupt"))
        })?;
        let engine = PolarisEngine::new(store, pool, config);
        engine.catalog.import_owned(image)?;
        Ok(engine)
    }

    /// Drop a table (auto-commit DDL). Its blobs, Delta log included, go to
    /// GC ([`sto::garbage_collect`]): they count as removed at the drop, so
    /// they stay while retention or a reader that began before the drop
    /// needs them, and while a zero-copy clone still names them.
    pub fn drop_table(&self, name: &str) -> PolarisResult<TableId> {
        let mut txn = self.catalog.begin(IsolationLevel::default());
        let meta = match self.catalog.drop_table(&mut txn, name) {
            Ok(meta) => meta,
            Err(e) => {
                self.catalog.abort(&mut txn);
                return Err(e.into());
            }
        };
        sto::commit_drop(self, &mut txn, &meta)?;
        self.maybe_checkpoint_commit_log();
        self.caches.write().remove(&meta.id);
        self.schemas.write().remove(&meta.id);
        Ok(meta.id)
    }

    /// The parsed schema of the table `meta` describes.
    pub(crate) fn table_schema(&self, meta: &TableMeta) -> PolarisResult<Schema> {
        if let Some(schema) = self.schemas.read().get(&meta.id) {
            return Ok(schema.clone());
        }
        let schema = schema_from_json(&meta.schema_json)?;
        self.schemas.write().insert(meta.id, schema.clone());
        Ok(schema)
    }

    pub(crate) fn cache_for(&self, table: TableId) -> Arc<SnapshotCache> {
        if let Some(c) = self.caches.read().get(&table) {
            return Arc::clone(c);
        }
        let mut caches = self.caches.write();
        Arc::clone(caches.entry(table).or_insert_with(|| {
            let mut meter = CacheMeter::from_registry(&self.metrics);
            meter.tracer = self.tracer.clone();
            Arc::new(SnapshotCache::with_meter(SNAPSHOT_CACHE_CAPACITY, meter))
        }))
    }

    /// Drop all BE snapshot caches (simulates compute nodes leaving and
    /// new ones replenishing from OneLake, §3.3).
    pub fn invalidate_caches(&self) {
        for cache in self.caches.read().values() {
            cache.invalidate();
        }
    }

    /// Reconstruct the snapshot of `table` visible to `txn`, optionally
    /// clamped to sequence `as_of` (time travel, §6.1).
    ///
    /// Uses the BE snapshot cache incrementally (§3.2.1) and prefers the
    /// latest visible checkpoint over a full manifest replay (§5.2).
    pub(crate) fn snapshot(
        &self,
        txn: &mut CatalogTxn,
        meta: &TableMeta,
        as_of: Option<SequenceId>,
    ) -> PolarisResult<Arc<TableSnapshot>> {
        let limit = as_of.unwrap_or(SequenceId(u64::MAX));
        // Clone-free freshness probe: only the newest visible manifest
        // sequence is needed here — the cache fetches the (usually empty
        // or single-manifest) tail itself.
        let upto = self.catalog.latest_manifest_sequence(txn, meta.id, limit)?;
        let cache = self.cache_for(meta.id);
        // Checkpoint seeding: only worth it when the cache has no usable
        // base below `upto`.
        if cache.best_base(upto).is_none() {
            if let Some((_, ckpt_row)) = self.catalog.latest_checkpoint(txn, meta.id, upto)? {
                let raw = self.store.get(&BlobPath::new(ckpt_row.path.clone())?)?;
                let ckpt = Checkpoint::decode(&raw)?;
                cache.seed(ckpt.into_snapshot());
            }
        }
        let store = &self.store;
        let catalog = &self.catalog;
        let tracer = &self.tracer;
        let table = meta.id;
        let snap = cache.snapshot_at(upto, |from, to| {
            let mut span = tracer.span("lst.manifest_fetch");
            span.attr("table", meta.id.0);
            let rows = catalog
                .manifests_between(txn, table, from, to)
                .map_err(|e| polaris_lst::LstError::malformed(e.to_string()))?;
            span.attr("manifests", rows.len());
            rows.into_iter()
                .map(|(seq, row)| {
                    let raw = store.get(&BlobPath::new(row.manifest_file.clone())?)?;
                    Ok((seq, Manifest::decode(&raw)?))
                })
                .collect()
        })?;
        Ok(snap)
    }

    /// The STO's between-ticks state.
    pub(crate) fn sto_state(&self) -> &Mutex<StoState> {
        &self.sto
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_columnar::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("id", DataType::Int64)])
    }

    #[test]
    fn create_and_drop_table() {
        let engine = PolarisEngine::in_memory();
        let id = engine.create_table("t1", &schema()).unwrap();
        assert!(id.0 >= 1001);
        // duplicate rejected, catalog txn cleanly aborted
        assert!(engine.create_table("t1", &schema()).is_err());
        assert_eq!(engine.catalog().active_count(), 0);
        engine.drop_table("t1").unwrap();
        assert!(engine.drop_table("t1").is_err());
        assert_eq!(engine.catalog().active_count(), 0);
    }

    #[test]
    fn empty_schema_rejected() {
        let engine = PolarisEngine::in_memory();
        assert!(engine.create_table("t", &Schema::new(vec![])).is_err());
    }

    #[test]
    fn snapshot_of_fresh_table_is_empty() {
        let engine = PolarisEngine::in_memory();
        engine.create_table("t1", &schema()).unwrap();
        let mut txn = engine.catalog().begin(Default::default());
        let meta = engine.catalog().table_by_name(&mut txn, "t1").unwrap();
        let snap = engine.snapshot(&mut txn, &meta, None).unwrap();
        assert_eq!(snap.file_count(), 0);
        engine.catalog().abort(&mut txn);
    }
}
