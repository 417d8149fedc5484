//! The canonical metric families — the single source of truth for every
//! `commgraph_*` metric the workspace emits.
//!
//! Each family is one typed const: [`Family<K, L>`] carries the name, the
//! help text and the `L` label keys, and `K` is the handle the family holds
//! ([`Counter`], [`Gauge`] or [`Histogram`]). [`crate::Obs`] and
//! [`crate::Registry`] register only a family, so a misspelt name, a
//! counter registered as a gauge or a wrong number of label values does not
//! compile. [`METRICS`] lists every name, and one `/metrics` scrape must
//! serve each of them (`tests/introspection.rs`), so a family that nothing
//! registers fails a test.
//!
//! Naming contract, checked by the unit tests below:
//! `commgraph_<component>_<what>_<unit>` in snake_case. The final segment is
//! `_total` for counters, a unit (`_seconds`, `_bytes`, `_records`, …) or a
//! counted noun (`_entries`, `_segments`, `_rules`, …) for gauges and
//! histograms.

use crate::metrics::{Counter, Gauge, Histogram};
#[cfg(test)]
use crate::registry::MetricKind;
use std::marker::PhantomData;

/// One metric family: a name, its help text and `L` label keys. `K` is the
/// handle type its metrics have, which fixes the family's kind.
#[derive(Debug)]
pub struct Family<K, const L: usize = 0> {
    /// Full metric name (`commgraph_...`, snake_case, unit-suffixed).
    pub name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) labels: [&'static str; L],
    kind: PhantomData<fn() -> K>,
}

impl<K, const L: usize> Family<K, L> {
    /// A family outside this table, for tests and embedders; the families
    /// the workspace emits are the consts below.
    pub const fn new(name: &'static str, help: &'static str, labels: [&'static str; L]) -> Self {
        Family { name, help, labels, kind: PhantomData }
    }
}

macro_rules! families {
    ($($id:ident: $kind:ident = $name:literal, [$($label:literal),*], $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $id: Family<$kind, { <[&str]>::len(&[$($label),*]) }> =
                Family::new($name, $help, [$($label),*]);
        )*

        /// The name of every family above, sorted.
        pub const METRICS: &[&str] = &[$($name),*];

        #[cfg(test)]
        const DEFS: &[(&str, MetricKind, &str)] = &[$(($name, MetricKind::$kind, $help)),*];
    };
}

families! {
    ALERT_EVAL_SECONDS: Histogram = "commgraph_alert_eval_seconds", [],
        "Wall-clock seconds per alert-rule evaluation pass.";
    ALERT_FIRING_ENTRIES: Gauge = "commgraph_alert_firing_entries", [],
        "Alert rules currently in the firing state.";
    ALERT_TRANSITIONS_TOTAL: Counter = "commgraph_alert_transitions_total", ["rule", "state"],
        "Alert state-machine transitions, by rule and entered state.";
    ENGINE_BATCH_RECORDS: Histogram = "commgraph_engine_batch_records", [],
        "Records per ingested batch.";
    ENGINE_BATCHES_TOTAL: Counter = "commgraph_engine_batches_total", [],
        "Batches offered to the engine's ingest calls.";
    ENGINE_DROPPED_RECORDS_TOTAL: Counter = "commgraph_engine_dropped_records_total", [],
        "Records dropped before aggregation (vantage dedup, or late: their window had closed), tallied at engine finish.";
    ENGINE_INGEST_SECONDS: Histogram = "commgraph_engine_ingest_seconds", [],
        "Wall-clock seconds per ingest call (telemetry + staging, including backpressure).";
    ENGINE_RECORDS_IN_TOTAL: Counter = "commgraph_engine_records_in_total", [],
        "Records offered to the engine's ingest calls.";
    ENGINE_RECORDS_KEPT_TOTAL: Counter = "commgraph_engine_records_kept_total", [],
        "Records surviving vantage dedup (aggregated into shards).";
    ENGINE_SHARD_EDGE_ENTRIES: Gauge = "commgraph_engine_shard_edge_entries", ["shard"],
        "Distinct edge entries one shard thread aggregated, summed over every window it assembled.";
    ENGINE_WORKER_BUSY_SECONDS: Histogram = "commgraph_engine_worker_busy_seconds", ["worker"],
        "Seconds one shard thread spent aggregating one batch (`worker` is the shard index); the sum is its busy time.";
    INCREMENTAL_SAVINGS_SECONDS: Histogram = "commgraph_incremental_savings_seconds", [],
        "Estimated per-window seconds saved by incremental maintenance vs the most recent full rebuild.";
    INGEST_WATERMARK_SECONDS: Gauge = "commgraph_ingest_watermark_seconds", ["source"],
        "High-water record timestamp (seconds since trace start) seen by an ingest path.";
    LANCZOS_STEPS_TOTAL: Counter = "commgraph_lanczos_steps_total", [],
        "Lanczos steps (Krylov dimensions) run by top-k eigensolves.";
    LOUVAIN_LEVELS_TOTAL: Counter = "commgraph_louvain_levels_total", [],
        "Aggregation levels performed by Louvain runs.";
    LOUVAIN_MOVES_TOTAL: Counter = "commgraph_louvain_moves_total", [],
        "Node moves applied by Louvain's local-move phase.";
    LOUVAIN_SWEEPS_TOTAL: Counter = "commgraph_louvain_sweeps_total", [],
        "Local-move sweeps executed by Louvain clustering.";
    MONITOR_ANOMALOUS_WINDOWS_TOTAL: Counter = "commgraph_monitor_anomalous_windows_total", [],
        "Enforced windows whose anomaly score exceeded the threshold.";
    MONITOR_ANOMALY_SCORE: Histogram = "commgraph_monitor_anomaly_score", [],
        "Per-window anomaly score (ratio over the baseline noise floor).";
    MONITOR_BASELINE_ALLOW_RULES: Gauge = "commgraph_monitor_baseline_allow_rules", [],
        "Allow rules in the learned baseline policy.";
    MONITOR_BASELINE_ANOMALY_THRESHOLD: Gauge = "commgraph_monitor_baseline_anomaly_threshold", [],
        "Calibrated anomaly threshold of the learned baseline.";
    MONITOR_BASELINE_SEGMENTS: Gauge = "commgraph_monitor_baseline_segments", [],
        "\u{b5}segments in the learned baseline.";
    MONITOR_VIOLATIONS_TOTAL: Counter = "commgraph_monitor_violations_total", [],
        "Policy violations detected in enforced windows (uncapped).";
    MONITOR_WINDOWS_TOTAL: Counter = "commgraph_monitor_windows_total", ["phase"],
        "Windows closed by the security monitor, by lifecycle phase.";
    OBS_LABEL_OVERFLOW_TOTAL: Counter = "commgraph_obs_label_overflow_total", ["family"],
        "Label resolutions routed to the overflow bucket by a cardinality cap.";
    PAR_TILES_TOTAL: Counter = "commgraph_par_tiles_total", ["shape"],
        "Tiles/tasks scheduled by the data-parallel work queues.";
    PAR_WORKER_BUSY_SECONDS: Histogram = "commgraph_par_worker_busy_seconds", ["shape"],
        "Per-worker busy time of one scheduler invocation.";
    PIPELINE_DROPPED_LATE_RECORDS_TOTAL: Counter = "commgraph_pipeline_dropped_late_records_total", [],
        "Dedup-surviving records dropped because their window had already closed when they arrived.";
    PIPELINE_LATE_RECORDS_TOTAL: Counter = "commgraph_pipeline_late_records_total", [],
        "Dedup-surviving records arriving behind the pipeline's ingest watermark (out-of-order input).";
    QUERY_RULE_EVAL_SECONDS: Histogram = "commgraph_query_rule_eval_seconds", [],
        "Wall-clock seconds per recording-rule evaluation pass.";
    QUERY_RULE_SERIES_TOTAL: Counter = "commgraph_query_rule_series_total", ["rule"],
        "Series written per recording-rule evaluation.";
    SERVE_REQUESTS_TOTAL: Counter = "commgraph_serve_requests_total", ["path"],
        "HTTP requests served by the introspection server, by endpoint.";
    SHARD_SUBSCRIPTION_ENTRIES: Gauge = "commgraph_shard_subscription_entries", ["shard"],
        "Subscriptions resident on one shard thread of the sharded engine.";
    STAGE_SECONDS: Histogram = "commgraph_stage_seconds", ["stage"],
        "Wall-clock seconds spent per streaming-pipeline stage.";
    SUBSCRIPTION_DEDUP_DROPPED_RECORDS_TOTAL: Counter = "commgraph_subscription_dedup_dropped_records_total", ["subscription", "outcome"],
        "Records refused at the sharded front door, per subscription: outcome=duplicate for re-delivered flush batches; outcome=late for batches too far behind their source to tell, and for records that arrived after their window closed (more than one window behind the newest, counted at finish).";
    SUBSCRIPTION_DIRTY_NODES: Gauge = "commgraph_subscription_dirty_nodes", ["subscription"],
        "Dirty-set size of the most recent analyzed window, per subscription.";
    SUBSCRIPTION_RECORDS_TOTAL: Counter = "commgraph_subscription_records_total", ["subscription"],
        "Records ingested per subscription through the sharded front door.";
    SUBSCRIPTION_ROLL_LAG_SECONDS: Gauge = "commgraph_subscription_roll_lag_seconds", ["subscription"],
        "Lag between the newest window's nominal start and the record that rolled it open, per subscription.";
    SUBSCRIPTION_WATERMARK_SECONDS: Gauge = "commgraph_subscription_watermark_seconds", ["subscription"],
        "High-water record timestamp seen per subscription.";
    TSDB_EVICTED_SAMPLES_TOTAL: Counter = "commgraph_tsdb_evicted_samples_total", [],
        "Samples evicted from full series rings (bounded-retention loss).";
    TSDB_MEMORY_BYTES: Gauge = "commgraph_tsdb_memory_bytes", [],
        "Estimated heap bytes held by the time-series store.";
    TSDB_SAMPLES_TOTAL: Counter = "commgraph_tsdb_samples_total", [],
        "Samples appended to the in-memory time-series store.";
    TSDB_SCRAPE_SECONDS: Histogram = "commgraph_tsdb_scrape_seconds", [],
        "Wall-clock seconds per registry scrape into the time-series store.";
    TSDB_SERIES_ENTRIES: Gauge = "commgraph_tsdb_series_entries", [],
        "Series currently retained by the time-series store.";
    WINDOW_DIRTY_NODES: Histogram = "commgraph_window_dirty_nodes", ["source"],
        "Dirty-set size per rolled window (nodes whose adjacency changed since the previous window).";
    WINDOW_ROLL_LAG_SECONDS: Histogram = "commgraph_window_roll_lag_seconds", ["source"],
        "Lag between a window's nominal start and the record that rolled it open.";
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Suffixes a metric name may end with (the "unit" of the naming contract).
    const ALLOWED_SUFFIXES: &[&str] = &[
        "total",
        "seconds",
        "bytes",
        "records",
        "entries",
        "score",
        "segments",
        "rules",
        "threshold",
        "ratio",
        "nodes",
        "edges",
    ];

    /// True when `name` obeys the naming contract: `commgraph_` prefix,
    /// `snake_case` segments, and a final segment from `ALLOWED_SUFFIXES`.
    fn well_formed(name: &str) -> bool {
        let Some(rest) = name.strip_prefix("commgraph_") else { return false };
        if rest.is_empty() || rest.starts_with('_') || rest.ends_with('_') || rest.contains("__") {
            return false;
        }
        if !rest.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
        match rest.rsplit('_').next() {
            Some(last) => ALLOWED_SUFFIXES.contains(&last),
            None => false,
        }
    }

    #[test]
    fn table_is_sorted_and_unique() {
        for pair in METRICS.windows(2) {
            assert!(pair[0] < pair[1], "{} !< {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn every_entry_is_well_formed() {
        for &(name, kind, help) in DEFS {
            assert!(well_formed(name), "malformed canonical name {name}");
            assert!(!help.is_empty(), "{name} has no help text");
            if kind == MetricKind::Counter {
                assert!(name.ends_with("_total"), "counter {name} must end _total");
            }
        }
    }

    #[test]
    fn well_formed_enforces_the_grammar() {
        assert!(well_formed("commgraph_stage_seconds"));
        assert!(!well_formed("commgraph_StageSeconds"), "no camel case");
        assert!(!well_formed("commgraph_stage"), "needs a unit suffix");
        assert!(!well_formed("commgraph__stage_seconds"), "no empty segments");
        assert!(!well_formed("stage_seconds"), "needs the commgraph_ prefix");
    }
}
