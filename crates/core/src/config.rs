//! Engine configuration.

use polaris_catalog::ConflictGranularity;
use polaris_columnar::WriterOptions;

/// Tunables of a [`PolarisEngine`](crate::PolarisEngine).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of distribution buckets `d(r)` (§2.3). Writes spread new
    /// data files across distributions; tasks own disjoint distributions.
    pub distributions: u32,
    /// Columnar writer options (row-group size, encoding heuristics).
    pub writer: WriterOptions,
    /// Write-write conflict granularity (§4.4.1).
    pub conflict_granularity: ConflictGranularity,
    /// Compaction trigger: files with fewer live rows are "small" (§5.1).
    pub compact_min_rows: u64,
    /// Checkpoint trigger: manifests accumulated since the last checkpoint
    /// (§5.2; the paper's experiment uses 10).
    pub checkpoint_every: u64,
    /// GC retention, in commit-sequence units: a file logically removed at
    /// sequence `s` becomes collectable once the current sequence exceeds
    /// `s + retention_seqs` (§5.3).
    pub retention_seqs: u64,
    /// Adaptive morsel sizing: total in-flight scan bytes the morsel
    /// scheduler budgets across all Read lanes. Each lane targets
    /// `budget / lanes` bytes per morsel, shrinking morsels when the
    /// in-flight total exceeds the budget and growing them when lanes
    /// are starved (below half the budget).
    pub scan_morsel_target_bytes: u64,
    /// Automatic transaction retries on commit conflict for auto-commit
    /// statements.
    pub auto_retries: u32,
    /// Group commit: max validated transactions batched through one
    /// sequencer section. 1 (the default) disables batching and
    /// reproduces the one-commit-per-section protocol exactly; higher
    /// values amortize the per-batch durable commit-log write across
    /// concurrent committers.
    pub group_commit_max_batch: usize,
    /// Group commit: how long (µs) a batch leader waits for the queue to
    /// fill before draining a partial batch. Under load, batches form by
    /// backpressure alone, so a small window suffices.
    pub group_commit_window_us: u64,
    /// Capacity of the engine's trace flight recorder, in events. The ring
    /// keeps the most recent `trace_capacity` events; 0 disables tracing.
    pub trace_capacity: usize,
    /// Address for the Prometheus/health HTTP endpoint (`GET /metrics`,
    /// `GET /health`). `None` (the default) serves nothing; use port 0 to
    /// let the OS pick (see `PolarisEngine::telemetry_addr`).
    pub telemetry_listen: Option<std::net::SocketAddr>,
    /// Harvester tick in milliseconds: how often the continuous-telemetry
    /// thread samples the metrics registry and evaluates watchdog rules.
    /// 0 spawns no background thread — ticks then only happen through
    /// `PolarisEngine::telemetry_tick_once` (deterministic tests,
    /// single-shot tools).
    pub telemetry_tick_ms: u64,
    /// Statements / transactions slower than this land in the slow log.
    pub slow_statement_ms: u64,
    /// Watchdog: an active transaction older than this is flagged as
    /// pinning the GC watermark.
    pub watchdog_txn_deadline_ms: u64,
    /// Watchdog: consecutive harvester ticks the group-commit queue may
    /// stay non-empty without draining before the stall rule fires.
    pub watchdog_queue_stall_ticks: u64,
    /// Durable commit log: when true, every sequencer batch is framed and
    /// appended under `sys/wal/` *before* its commits publish, and
    /// [`PolarisEngine::open`](crate::PolarisEngine::open) replays the
    /// checkpoint + log tail on restart. Takes effect through `open` —
    /// `PolarisEngine::new` never installs the log hook, because a hook
    /// active during recovery would re-log (and clobber) the very
    /// segments being replayed.
    pub commit_log_enabled: bool,
    /// Roll to a new WAL segment once the current one holds at least this
    /// many framed bytes. Small segments bound the blobs recovery must
    /// re-read; large ones amortize blob creation.
    pub log_segment_bytes: u64,
    /// Write a checkpoint generation — the catalog rows committed since
    /// the last one, appended to the checkpoint blob — and prune the WAL
    /// segments the previous generation covers, every this many logged
    /// batches. 0 disables checkpointing (the log then grows until the
    /// operator checkpoints manually, each time with a full image).
    pub log_checkpoint_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            distributions: 8,
            writer: WriterOptions::default(),
            conflict_granularity: ConflictGranularity::Table,
            compact_min_rows: 1024,
            checkpoint_every: 10,
            retention_seqs: 100,
            scan_morsel_target_bytes: 4 << 20,
            auto_retries: 3,
            group_commit_max_batch: 1,
            group_commit_window_us: 200,
            trace_capacity: 8192,
            telemetry_listen: None,
            telemetry_tick_ms: 100,
            slow_statement_ms: 100,
            watchdog_txn_deadline_ms: 10_000,
            watchdog_queue_stall_ticks: 3,
            commit_log_enabled: false,
            log_segment_bytes: 1 << 20,
            log_checkpoint_every: 64,
        }
    }
}

impl EngineConfig {
    /// Config tuned for small unit tests: tiny row groups and aggressive
    /// background triggers.
    pub fn for_testing() -> Self {
        EngineConfig {
            writer: WriterOptions {
                row_group_rows: 128,
                ..Default::default()
            },
            compact_min_rows: 16,
            checkpoint_every: 4,
            // Tiny in-flight budget so unit-test scans exercise adaptive
            // splitting even with 128-row groups.
            scan_morsel_target_bytes: 2048,
            retention_seqs: 2,
            trace_capacity: 1 << 16,
            // No harvester thread in unit tests; tick manually via
            // `PolarisEngine::telemetry_tick_once`.
            telemetry_tick_ms: 0,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.distributions > 0);
        assert!(c.checkpoint_every > 0);
        assert_eq!(c.conflict_granularity, ConflictGranularity::Table);
    }
}
