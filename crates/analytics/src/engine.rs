//! Engine configuration and counters: what every shard thread of
//! [`crate::sharded::ShardedEngine`] aggregates under, and what one
//! subscription's run reports back. A single-stream caller asks for one
//! shard and one subscription; there is no separate one-tenant engine.

use commgraph_graph::Facet;
use obs::Obs;
use serde::Serialize;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Engine configuration: what every shard thread aggregates under.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Facet to aggregate under.
    pub facet: Facet,
    /// Window length in seconds (3600 for hourly graphs).
    pub window_len: u64,
    /// Monitored inventory for vantage dedup (`None` disables dedup).
    pub monitored: Option<HashSet<Ipv4Addr>>,
    /// Channel depth per shard thread, in batches — the backpressure bound.
    pub queue_depth: usize,
    /// Observability handle; the default noop handle records nothing and
    /// costs nothing. Metrics never change what the engine computes.
    pub obs: Obs,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            facet: Facet::Ip,
            window_len: 3600,
            monitored: None,
            queue_depth: 8,
            obs: Obs::noop(),
        }
    }
}

/// Counters describing one subscription's run through the engine.
#[derive(Debug, Clone, Default, Serialize)]
pub struct EngineStats {
    /// Records offered to `ingest`.
    pub records_in: u64,
    /// Records surviving vantage dedup (i.e. aggregated).
    pub records_kept: u64,
    /// Records not aggregated because their window had closed (more than
    /// one window behind the newest): `in = kept + vantage-deduped + late`.
    pub records_late: u64,
    /// Distinct edge entries summed over every window: the work, not the
    /// memory, since at most two windows per subscription are held at once.
    pub edge_entries: usize,
    /// Wall-clock seconds from first ingest to finish.
    pub(crate) elapsed_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{ShardedConfig, ShardedEngine};
    use flowlog::record::{ConnSummary, FlowKey};
    use obs::names;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    fn records(n: u32) -> Vec<ConnSummary> {
        (0..n)
            .map(|i| ConnSummary {
                ts: (i as u64 % 120) * 60,
                key: FlowKey::tcp(
                    ip((i % 5) as u8, 1),
                    (40_000 + i % 1000) as u16,
                    ip(9, (i % 7) as u8 + 1),
                    443,
                ),
                pkts_sent: 2,
                pkts_rcvd: 1,
                bytes_sent: 100 + i as u64,
                bytes_rcvd: 50,
            })
            .collect()
    }

    /// One subscription through a one-shard engine configured by `engine`,
    /// in batches of `chunk`: its stats.
    fn run(engine: EngineConfig, recs: &[ConnSummary], chunk: usize) -> EngineStats {
        let mut e =
            ShardedEngine::new(ShardedConfig { shards: 1, engine, ..Default::default() }).unwrap();
        for batch in recs.chunks(chunk) {
            e.ingest("sub", batch).unwrap();
        }
        let (mut reports, _) = e.finish().unwrap();
        reports.pop().map(|r| r.stats).unwrap_or_default()
    }

    #[test]
    fn metrics_agree_with_returned_stats() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let recs = records(300);
        let cfg = EngineConfig { obs: Obs::new(registry.clone()), ..Default::default() };
        let stats = run(cfg, &recs, 100);

        let records_in = registry.counter(&names::ENGINE_RECORDS_IN_TOTAL, []).get();
        let kept = registry.counter(&names::ENGINE_RECORDS_KEPT_TOTAL, []).get();
        let batches = registry.counter(&names::ENGINE_BATCHES_TOTAL, []).get();
        assert_eq!(records_in, stats.records_in);
        assert_eq!(kept, stats.records_kept);
        assert_eq!(batches, 3);
        assert_eq!(registry.histogram(&names::ENGINE_BATCH_RECORDS, []).count(), 3);
        assert!(
            registry.histogram(&names::ENGINE_INGEST_SECONDS, []).count() == 3,
            "one span per ingest call"
        );
        // 300 records stage into one batch: one busy span on the one shard.
        let busy = registry.histogram(&names::ENGINE_WORKER_BUSY_SECONDS, ["0"]);
        assert_eq!(busy.count(), 1);
        // No dedup configured → nothing dropped; watermark is the max ts.
        let dropped = registry.counter(&names::ENGINE_DROPPED_RECORDS_TOTAL, []).get();
        assert_eq!(dropped, stats.records_in - stats.records_kept);
        let max_ts = recs.iter().map(|r| r.ts).max().unwrap() as f64;
        let watermark = registry.gauge(&names::INGEST_WATERMARK_SECONDS, ["engine"]).get();
        assert_eq!(watermark, max_ts);
    }

    #[test]
    fn dedup_drops_are_counted() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let base = records(100);
        let mut recs = base.clone();
        recs.extend(base.iter().map(|r| r.mirrored()));
        let monitored: HashSet<Ipv4Addr> =
            recs.iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect();
        let cfg = EngineConfig {
            monitored: Some(monitored),
            obs: Obs::new(registry.clone()),
            ..Default::default()
        };
        let stats = run(cfg, &recs, recs.len());
        assert_eq!(stats.records_kept, 100);
        let dropped = registry.counter(&names::ENGINE_DROPPED_RECORDS_TOTAL, []).get();
        assert_eq!(dropped, 100, "every mirrored duplicate counted as dropped");
    }

    /// A run whose clock never advanced (or was never started) must report
    /// zero throughput, not inf/NaN.
    #[test]
    fn zero_duration_stats_report_zero_rates() {
        // A never-ingested engine reports elapsed 0.0 end to end.
        let s = run(EngineConfig::default(), &[], 1);
        assert_eq!(s.elapsed_secs, 0.0);
        assert_eq!(obs::rate::per_second(s.records_in, s.elapsed_secs), 0.0);
    }
}
