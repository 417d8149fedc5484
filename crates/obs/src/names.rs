//! The canonical metric-name table — the single source of truth for every
//! `commgraph_*` metric the workspace emits.
//!
//! Dashboards, exporters, and the `lintcheck` metric-registry lint all read
//! this table. A metric that is not listed here does not exist: the lint
//! (`cargo run -p lintcheck`) rejects any `commgraph_*` string literal in the
//! workspace that has no entry, rejects table entries no code references,
//! and rejects call sites that register a name with a kind other than the
//! one declared here.
//!
//! Naming contract: `commgraph_<component>_<what>_<unit>` in snake_case. The
//! final segment must be one of `ALLOWED_SUFFIXES` — `_total` for
//! counters, a unit (`_seconds`, `_bytes`, `_records`, …) or a counted noun
//! (`_entries`, `_segments`, `_rules`, …) for gauges and histograms.

use crate::registry::MetricKind;

/// One canonical metric family definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Full metric name (`commgraph_...`, snake_case, unit-suffixed).
    pub name: &'static str,
    /// Kind every registration site must use.
    pub kind: MetricKind,
    /// Canonical help text; exporters prefer this over per-site help.
    pub(crate) help: &'static str,
    /// Label keys, in registration order. Empty for unlabeled families.
    pub labels: &'static [&'static str],
}

/// Suffixes a metric name may end with (the "unit" of the naming contract).
pub(crate) const ALLOWED_SUFFIXES: &[&str] = &[
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

/// Every metric family the workspace may emit, sorted by name.
pub const METRICS: &[MetricDef] = &[
    MetricDef {
        name: "commgraph_alert_eval_seconds",
        kind: MetricKind::Histogram,
        help: "Wall-clock seconds per alert-rule evaluation pass.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_alert_firing_entries",
        kind: MetricKind::Gauge,
        help: "Alert rules currently in the firing state.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_alert_transitions_total",
        kind: MetricKind::Counter,
        help: "Alert state-machine transitions, by rule and entered state.",
        labels: &["rule", "state"],
    },
    MetricDef {
        name: "commgraph_engine_batch_records",
        kind: MetricKind::Histogram,
        help: "Records per ingested batch.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_engine_batches_total",
        kind: MetricKind::Counter,
        help: "Batches offered to the engine's ingest calls.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_engine_dropped_records_total",
        kind: MetricKind::Counter,
        help: "Records dropped before aggregation (vantage dedup, or late: their window had closed), tallied at engine finish.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_engine_ingest_seconds",
        kind: MetricKind::Histogram,
        help: "Wall-clock seconds per ingest call (telemetry + staging, including backpressure).",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_engine_records_in_total",
        kind: MetricKind::Counter,
        help: "Records offered to the engine's ingest calls.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_engine_records_kept_total",
        kind: MetricKind::Counter,
        help: "Records surviving vantage dedup (aggregated into shards).",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_engine_shard_edge_entries",
        kind: MetricKind::Gauge,
        help: "Distinct edge entries one shard thread aggregated, summed over every window it assembled.",
        labels: &["shard"],
    },
    MetricDef {
        name: "commgraph_engine_worker_busy_seconds",
        kind: MetricKind::Histogram,
        help: "Seconds one shard thread spent aggregating one batch (`worker` is the shard index); the sum is its busy time.",
        labels: &["worker"],
    },
    MetricDef {
        name: "commgraph_incremental_savings_seconds",
        kind: MetricKind::Histogram,
        help: "Estimated per-window seconds saved by incremental maintenance vs the most recent full rebuild.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_ingest_watermark_seconds",
        kind: MetricKind::Gauge,
        help: "High-water record timestamp (seconds since trace start) seen by an ingest path.",
        labels: &["source"],
    },
    MetricDef {
        name: "commgraph_lanczos_steps_total",
        kind: MetricKind::Counter,
        help: "Lanczos steps (Krylov dimensions) run by top-k eigensolves.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_louvain_levels_total",
        kind: MetricKind::Counter,
        help: "Aggregation levels performed by Louvain runs.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_louvain_moves_total",
        kind: MetricKind::Counter,
        help: "Node moves applied by Louvain's local-move phase.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_louvain_sweeps_total",
        kind: MetricKind::Counter,
        help: "Local-move sweeps executed by Louvain clustering.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_monitor_anomalous_windows_total",
        kind: MetricKind::Counter,
        help: "Enforced windows whose anomaly score exceeded the threshold.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_monitor_anomaly_score",
        kind: MetricKind::Histogram,
        help: "Per-window anomaly score (ratio over the baseline noise floor).",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_monitor_baseline_allow_rules",
        kind: MetricKind::Gauge,
        help: "Allow rules in the learned baseline policy.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_monitor_baseline_anomaly_threshold",
        kind: MetricKind::Gauge,
        help: "Calibrated anomaly threshold of the learned baseline.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_monitor_baseline_segments",
        kind: MetricKind::Gauge,
        help: "\u{b5}segments in the learned baseline.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_monitor_violations_total",
        kind: MetricKind::Counter,
        help: "Policy violations detected in enforced windows (uncapped).",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_monitor_windows_total",
        kind: MetricKind::Counter,
        help: "Windows closed by the security monitor, by lifecycle phase.",
        labels: &["phase"],
    },
    MetricDef {
        name: "commgraph_obs_label_overflow_total",
        kind: MetricKind::Counter,
        help: "Label resolutions routed to the overflow bucket by a cardinality cap.",
        labels: &["family"],
    },
    MetricDef {
        name: "commgraph_par_tiles_total",
        kind: MetricKind::Counter,
        help: "Tiles/tasks scheduled by the data-parallel work queues.",
        labels: &["shape"],
    },
    MetricDef {
        name: "commgraph_par_worker_busy_seconds",
        kind: MetricKind::Histogram,
        help: "Per-worker busy time of one scheduler invocation.",
        labels: &["shape"],
    },
    MetricDef {
        name: "commgraph_pipeline_dropped_late_records_total",
        kind: MetricKind::Counter,
        help: "Dedup-surviving records dropped because their window had already closed when they arrived.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_pipeline_late_records_total",
        kind: MetricKind::Counter,
        help: "Dedup-surviving records arriving behind the pipeline's ingest watermark (out-of-order input).",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_query_rule_eval_seconds",
        kind: MetricKind::Histogram,
        help: "Wall-clock seconds per recording-rule evaluation pass.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_query_rule_series_total",
        kind: MetricKind::Counter,
        help: "Series written per recording-rule evaluation.",
        labels: &["rule"],
    },
    MetricDef {
        name: "commgraph_serve_requests_total",
        kind: MetricKind::Counter,
        help: "HTTP requests served by the introspection server, by endpoint.",
        labels: &["path"],
    },
    MetricDef {
        name: "commgraph_shard_subscription_entries",
        kind: MetricKind::Gauge,
        help: "Subscriptions resident on one shard thread of the sharded engine.",
        labels: &["shard"],
    },
    MetricDef {
        name: "commgraph_stage_seconds",
        kind: MetricKind::Histogram,
        help: "Wall-clock seconds spent per streaming-pipeline stage.",
        labels: &["stage"],
    },
    MetricDef {
        name: "commgraph_subscription_dedup_dropped_records_total",
        kind: MetricKind::Counter,
        help: "Records refused at the sharded front door, per subscription: outcome=duplicate for re-delivered flush batches; outcome=late for batches too far behind their source to tell, and for records that arrived after their window closed (more than one window behind the newest, counted at finish).",
        labels: &["subscription", "outcome"],
    },
    MetricDef {
        name: "commgraph_subscription_dirty_nodes",
        kind: MetricKind::Gauge,
        help: "Dirty-set size of the most recent analyzed window, per subscription.",
        labels: &["subscription"],
    },
    MetricDef {
        name: "commgraph_subscription_records_total",
        kind: MetricKind::Counter,
        help: "Records ingested per subscription through the sharded front door.",
        labels: &["subscription"],
    },
    MetricDef {
        name: "commgraph_subscription_roll_lag_seconds",
        kind: MetricKind::Gauge,
        help: "Lag between the newest window's nominal start and the record that rolled it open, per subscription.",
        labels: &["subscription"],
    },
    MetricDef {
        name: "commgraph_subscription_watermark_seconds",
        kind: MetricKind::Gauge,
        help: "High-water record timestamp seen per subscription.",
        labels: &["subscription"],
    },
    MetricDef {
        name: "commgraph_tsdb_evicted_samples_total",
        kind: MetricKind::Counter,
        help: "Samples evicted from full series rings (bounded-retention loss).",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_tsdb_memory_bytes",
        kind: MetricKind::Gauge,
        help: "Estimated heap bytes held by the time-series store.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_tsdb_samples_total",
        kind: MetricKind::Counter,
        help: "Samples appended to the in-memory time-series store.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_tsdb_scrape_seconds",
        kind: MetricKind::Histogram,
        help: "Wall-clock seconds per registry scrape into the time-series store.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_tsdb_series_entries",
        kind: MetricKind::Gauge,
        help: "Series currently retained by the time-series store.",
        labels: &[],
    },
    MetricDef {
        name: "commgraph_window_dirty_nodes",
        kind: MetricKind::Histogram,
        help: "Dirty-set size per rolled window (nodes whose adjacency changed since the previous window).",
        labels: &["source"],
    },
    MetricDef {
        name: "commgraph_window_roll_lag_seconds",
        kind: MetricKind::Histogram,
        help: "Lag between a window's nominal start and the record that rolled it open.",
        labels: &["source"],
    },
];

/// Look up the canonical definition for `name`.
pub(crate) fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.binary_search_by(|d| d.name.cmp(name)).ok().map(|i| &METRICS[i])
}

/// True when `name` obeys the naming contract: `commgraph_` prefix,
/// `snake_case` segments, and a final segment from `ALLOWED_SUFFIXES`.
pub fn well_formed(name: &str) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_unique() {
        for pair in METRICS.windows(2) {
            assert!(pair[0].name < pair[1].name, "{} !< {}", pair[0].name, pair[1].name);
        }
    }

    #[test]
    fn every_entry_is_well_formed() {
        for def in METRICS {
            assert!(well_formed(def.name), "malformed canonical name {}", def.name);
            assert!(!def.help.is_empty(), "{} has no help text", def.name);
            if def.kind == MetricKind::Counter {
                assert!(def.name.ends_with("_total"), "counter {} must end _total", def.name);
            }
        }
    }

    #[test]
    fn lookup_finds_every_entry_and_rejects_strangers() {
        for def in METRICS {
            assert_eq!(lookup(def.name).map(|d| d.kind), Some(def.kind));
        }
        assert!(lookup("commgraph_made_up_total").is_none());
        assert!(lookup("").is_none());
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
