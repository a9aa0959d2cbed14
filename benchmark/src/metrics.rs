//! The metric names and units this binary prints. `BENCHMARK.json` lists the
//! same names (a test keeps the two in step); README.md says which layer
//! metric is expected to move which end-to-end metric on which workload.

/// Printed with `--trace 0`, for every workload. What "operation" means per
/// workload is in README.md.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_mid_us", "us"),
    ("op_tail_us", "us"),
    ("recovery_ms", "ms"),
    ("store_bytes_per_user_byte", "B/B"),
    ("peak_rss_mb", "MB"),
];

/// Printed with `--trace 1`, for every workload; 0 where a workload has no
/// such operation (no queries in `trickle_insert`, no DM outside `wp3_mixed`).
pub const PER_LAYER: [(&str, &str); 77] = [
    // The traced run itself, and the per-role view of the untraced epochs.
    ("trace_overhead_share", "share"),
    ("failed_share", "share"),
    ("txn_per_s", "1/s"),
    ("txn_p50_us", "us"),
    ("txn_p99_us", "us"),
    ("txn_p995_us", "us"),
    ("query_per_s", "1/s"),
    ("query_geomean_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("latency_samples", "count"),
    // store — in situ, from the harness's SpanStore.
    ("store.write_calls", "count"),
    ("store.write_calls_per_txn", "count"),
    ("store.read_calls_per_query", "count"),
    ("store.bytes_written_per_txn", "B"),
    ("store.bytes_read_per_query", "B"),
    ("store.busy_ms", "ms"),
    ("store.busy_share", "share"),
    ("store.errors", "count"),
    ("store.cache_hit_ratio", "share"),
    ("store.live_bytes_per_user_byte", "B/B"),
    // sql — replay probe over the workload's statement mix.
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.parse_allocs", "count"),
    // core — in situ.
    ("core.execute_self_us", "us"),
    ("core.allocs_per_txn", "count"),
    ("core.alloc_bytes_per_txn", "B"),
    ("core.allocs_per_query", "count"),
    ("core.sto_tick_ms", "ms"),
    ("core.sto_tick_growth", "ratio"),
    ("core.txn_latency_drift", "ratio"),
    ("core.compaction_conflict_share", "share"),
    ("core.dm_insert_ms", "ms"),
    ("core.dm_delete_ms", "ms"),
    ("core.open_ms", "ms"),
    // catalog — replay probe on a copy of the end-state catalog.
    ("catalog.commit_us", "us"),
    ("catalog.commit_allocs", "count"),
    ("catalog.visible_manifests_us", "us"),
    ("catalog.export_us", "us"),
    ("catalog.import_us", "us"),
    ("catalog.conflict_round_ms", "ms"),
    ("catalog.history_depth", "count"),
    // wal — replay probe over the end-state log.
    ("wal.encode_frame_us", "us"),
    ("wal.decode_frames_us_per_batch", "us"),
    ("wal.frame_bytes_per_commit", "B"),
    // lst — replay probe over the end-state manifest chain.
    ("lst.manifest_encode_us", "us"),
    ("lst.manifest_decode_us", "us"),
    ("lst.snapshot_replay_us", "us"),
    ("lst.snapshot_extend_us", "us"),
    ("lst.checkpoint_decode_us", "us"),
    // columnar — replay probe over the table's largest data file.
    ("columnar.encode_us_per_krow", "us"),
    ("columnar.decode_us_per_krow", "us"),
    ("columnar.footer_parse_us", "us"),
    ("columnar.file_bytes_per_row", "B"),
    // exec — replay probe, plus the per-shape medians of analytic_scan.
    ("exec.scan_us_per_krow", "us"),
    ("exec.pruned_group_share", "share"),
    ("exec.write_data_file_1row_us", "us"),
    ("exec.write_data_file_4096row_us", "us"),
    ("exec.delete_matching_us", "us"),
    ("exec.q_group_agg_ms", "ms"),
    ("exec.q_filter_count_ms", "ms"),
    ("exec.q_topn_ms", "ms"),
    ("exec.q_point_ms", "ms"),
    // dcp — replay probe on the engine's own pool, lanes sampled in situ.
    ("dcp.dag_roundtrip_us", "us"),
    ("dcp.task_dispatch_us", "us"),
    ("dcp.read_lane_busy_share", "share"),
    // obs — the watch on introspection cost.
    ("obs.metrics_snapshot_us", "us"),
    ("obs.system_scan_ms", "ms"),
    ("obs.system_scan_allocs", "count"),
    // trickle_insert's median operation, split by the probes on its path.
    ("path.sql_us", "us"),
    ("path.dcp_us", "us"),
    ("path.exec_write_us", "us"),
    ("path.lst_us", "us"),
    ("path.store_us", "us"),
    ("path.catalog_us", "us"),
    ("path.wal_us", "us"),
    ("path.core_remainder_us", "us"),
    ("path.op_median_us", "us"),
];
