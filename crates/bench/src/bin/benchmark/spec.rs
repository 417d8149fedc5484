//! The benchmark's fixed vocabulary: workload names with their reasons,
//! end-to-end metrics with regression bounds, per-layer metrics. The unit
//! tests hold `BENCHMARK.json` to these tables.

/// `(name, why)` per workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "lowcard_stream",
        "few edges, many records: decode, dedup, builder adds and the policy's second scan of raw records do the work",
    ),
    (
        "highcard_tenants",
        "15k distinct edges per window across tenants: hash-map growth, per-tenant engines and worker hand-off dominate, analysis is absent",
    ),
    (
        "jittered_delivery",
        "the same engine fed tiny reordered, duplicated, lossy batches: per-call cost and delivery dedup instead of bulk ingest",
    ),
    (
        "role_churn",
        "600-node windows with small drift and a burst every 4th: incremental similarity, Louvain and policy dominate; p50 is steady, p90 is burst",
    ),
    (
        "spectral_summary",
        "one dense n~270 matrix: full-spectrum Jacobi is >90% of the pass; where a top-k solver must win and all else must read no change",
    ),
    (
        "monitor_attack",
        "learn-then-enforce with a lateral-movement breach: a fifth ingest path and the read side of segment (checking records against a policy)",
    ),
];

/// An end-to-end metric: what a caller of the product would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, identical on every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "records_per_s", unit: "records/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "result_ms_p50", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "result_ms_p90", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// `(name, unit, better)` per per-layer metric; the layer is the part of
/// the name before the first `.`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("flowlog.decode_busy_ms", "ms", "lower"),
    ("flowlog.decode_mb_per_s", "MB/s", "higher"),
    ("flowlog.decode_failed", "count", "lower"),
    ("flowlog.nic_observe_ns", "ns", "lower"),
    ("core.pipeline_ingest_busy_ms", "ms", "lower"),
    ("core.pipeline_ingest_ns_per_record", "ns", "lower"),
    ("core.pipeline_finish_ms", "ms", "lower"),
    ("core.records_in", "count", "higher"),
    ("core.records_in_graphs", "count", "higher"),
    ("core.analyze_busy_ms", "ms", "lower"),
    ("core.analyze_self_ms", "ms", "lower"),
    ("core.monitor_ingest_busy_ms", "ms", "lower"),
    ("core.monitor_baseline_ms", "ms", "lower"),
    ("core.monitor_close_ms_p50", "ms", "lower"),
    ("analytics.ingest_busy_ms", "ms", "lower"),
    ("analytics.ingest_calls", "count", "lower"),
    ("analytics.ingest_ns_per_call", "ns", "lower"),
    ("analytics.finish_ms", "ms", "lower"),
    ("analytics.records_in", "count", "higher"),
    ("analytics.edge_entries", "count", "lower"),
    ("analytics.dedup_dropped_records", "count", "lower"),
    ("analytics.shard_skew", "ratio", "lower"),
    ("analytics.state_rss_mb", "MB", "lower"),
    ("analytics.threads_peak", "count", "lower"),
    ("graph.build_busy_ms", "ms", "lower"),
    ("graph.build_ns_per_record", "ns", "lower"),
    ("graph.nodes_p50", "count", "lower"),
    ("graph.edges_p50", "count", "lower"),
    ("graph.collapse_busy_ms", "ms", "lower"),
    ("graph.collapse_fraction", "ratio", "higher"),
    ("graph.diff_busy_ms", "ms", "lower"),
    ("graph.dirty_nodes_p50", "count", "lower"),
    ("graph.dirty_nodes_p90", "count", "lower"),
    ("algos.similarity_ms_p50", "ms", "lower"),
    ("algos.scored_pairs", "count", "lower"),
    ("algos.infer_roles_ms_p50", "ms", "lower"),
    ("algos.infer_roles_incremental_ms_p50", "ms", "lower"),
    ("algos.n_roles_p50", "count", "higher"),
    ("algos.ari_vs_truth", "ratio", "higher"),
    ("algos.par_speedup", "ratio", "higher"),
    ("segment.from_inference_ms_p50", "ms", "lower"),
    ("segment.learn_ms_p50", "ms", "lower"),
    ("segment.learn_ns_per_record", "ns", "lower"),
    ("segment.learn_incremental_ms_p50", "ms", "lower"),
    ("segment.rules_p50", "count", "lower"),
    ("segment.compile_ms_p50", "ms", "lower"),
    ("segment.vm_rules_max", "count", "lower"),
    ("segment.check_ns_per_record", "ns", "lower"),
    ("segment.violations", "count", "lower"),
    ("linalg.eigen_ms_p50", "ms", "lower"),
    ("linalg.eigen_n", "count", "higher"),
    ("linalg.pca_sweep_ms_p50", "ms", "lower"),
    ("linalg.recon_err_k25", "ratio", "lower"),
    ("linalg.par_speedup", "ratio", "higher"),
    ("obs.overhead_frac", "ratio", "lower"),
    ("obs.tick_us_p50", "us", "lower"),
    ("obs.series", "count", "lower"),
    ("obs.tsdb_mb", "MB", "lower"),
    ("cloudsim.net_busy_ms", "ms", "lower"),
    ("cloudsim.net_packets", "count", "higher"),
    ("cloudsim.net_reordered_share", "ratio", "lower"),
    ("cloudsim.net_duplicated_share", "ratio", "lower"),
    ("cloudsim.sim_records_per_s", "records/s", "higher"),
    ("flowlog.self_share", "ratio", "lower"),
    ("core.self_share", "ratio", "lower"),
    ("analytics.self_share", "ratio", "lower"),
    ("graph.self_share", "ratio", "lower"),
    ("algos.self_share", "ratio", "lower"),
    ("segment.self_share", "ratio", "lower"),
    ("linalg.self_share", "ratio", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
];

/// Seconds a run measures for; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// Unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}
