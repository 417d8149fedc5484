//! Engine configuration and counters, and [`StreamEngine`]: the
//! one-tenant face of [`crate::sharded`] (one shard thread, one
//! subscription) for single-stream callers and reference runs. Its own
//! pool of edge-hashed workers is gone: the single producer saturated
//! before they did, so the parallel axis is subscriptions, not edges.

use crate::error::Result;
use crate::sharded::{ShardedConfig, ShardedEngine};
use commgraph_graph::{CommGraph, Facet};
use flowlog::record::ConnSummary;
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
    /// Distinct edge entries across all windows — the memory driver.
    pub edge_entries: usize,
    /// Wall-clock seconds from first ingest to finish.
    pub elapsed_secs: f64,
}

impl EngineStats {
    /// Ingest throughput: **raw records offered per wall-clock second**,
    /// measured from first ingest to `finish`. This is a machine-speed
    /// number ("how fast did we chew through the stream"), *not* the
    /// telemetry arrival rate — for the per-active-minute arrival rate see
    /// `PipelineOutput::mean_records_per_minute` in the core crate. Both
    /// divide through [`obs::rate`], which guards zero durations.
    pub fn records_per_sec(&self) -> f64 {
        obs::rate::per_second(self.records_in, self.elapsed_secs)
    }
}

/// A one-subscription engine. Create, `ingest` batches, then `finish`.
pub struct StreamEngine(ShardedEngine);

impl StreamEngine {
    /// Spawn the shard thread.
    pub fn new(cfg: EngineConfig) -> Result<Self> {
        let front = ShardedConfig { shards: 1, engine: cfg, obs: Obs::noop(), label_cap: 0 };
        ShardedEngine::new(front).map(StreamEngine)
    }

    /// Offer a batch; blocks when the shard's queue is full (backpressure).
    pub fn ingest(&mut self, records: &[ConnSummary]) -> Result<()> {
        self.0.ingest("", records)
    }

    /// Drain the shard and return one graph per window, in time order.
    pub fn finish(self) -> Result<(Vec<CommGraph>, EngineStats)> {
        let (mut reports, _) = self.0.finish()?;
        Ok(reports.pop().map(|r| (r.graphs, r.stats)).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph_graph::GraphBuilder;
    use flowlog::record::FlowKey;
    use flowlog::time::bucket_start;
    use std::collections::HashMap;

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

    /// The engine must produce exactly what a single-threaded builder does.
    #[test]
    fn matches_single_threaded_builder() {
        let recs = records(5000);
        let mut engine =
            StreamEngine::new(EngineConfig { window_len: 3600, ..Default::default() }).unwrap();
        for chunk in recs.chunks(512) {
            engine.ingest(chunk).unwrap();
        }
        let (graphs, stats) = engine.finish().unwrap();

        // Reference: one GraphBuilder per window.
        let mut ref_builders: HashMap<u64, GraphBuilder> = HashMap::new();
        for r in &recs {
            let w = bucket_start(r.ts, 3600);
            ref_builders.entry(w).or_insert_with(|| GraphBuilder::new(Facet::Ip, w, 3600)).add(r);
        }
        assert_eq!(graphs.len(), ref_builders.len());
        for g in &graphs {
            let reference = ref_builders.remove(&g.window_start()).unwrap().finish();
            assert_eq!(g.node_count(), reference.node_count());
            assert_eq!(g.edge_count(), reference.edge_count());
            assert_eq!(g.totals(), reference.totals());
            // Spot-check each edge.
            for i in 0..g.node_count() as u32 {
                for (j, stats) in g.neighbors(i) {
                    let ri = reference.index_of(&g.node(i)).expect("node exists");
                    let rj = reference.index_of(&g.node(*j)).expect("node exists");
                    assert_eq!(reference.edge(ri, rj).expect("edge exists"), *stats);
                }
            }
        }
        assert_eq!(stats.records_in, 5000);
        assert_eq!(stats.records_kept, 5000, "no dedup configured");
        assert!(stats.records_per_sec() > 0.0);
    }

    #[test]
    fn dedup_matches_builder_dedup() {
        let base = records(200);
        // Duplicate every record from the peer's vantage; both ends monitored.
        let mut recs = base.clone();
        recs.extend(base.iter().map(|r| r.mirrored()));
        let monitored: HashSet<Ipv4Addr> =
            recs.iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect();

        let mut engine = StreamEngine::new(EngineConfig {
            monitored: Some(monitored.clone()),
            ..Default::default()
        })
        .unwrap();
        engine.ingest(&recs).unwrap();
        let (graphs, stats) = engine.finish().unwrap();
        assert_eq!(stats.records_kept, 200, "each flow counted once");
        let total: u64 = graphs.iter().map(|g| g.totals().bytes()).sum();
        let expect: u64 = base.iter().map(|r| r.bytes_total()).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn ingest_after_finish_is_rejected() {
        let engine = StreamEngine::new(EngineConfig::default()).unwrap();
        let (graphs, _) = engine.finish().unwrap();
        assert!(graphs.is_empty());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(StreamEngine::new(EngineConfig { window_len: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn metrics_agree_with_returned_stats() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let recs = records(300);
        let mut e = StreamEngine::new(EngineConfig {
            obs: Obs::new(registry.clone()),
            ..Default::default()
        })
        .unwrap();
        for chunk in recs.chunks(100) {
            e.ingest(chunk).unwrap();
        }
        let (_, stats) = e.finish().unwrap();

        let records_in = registry.counter("commgraph_engine_records_in_total", "", &[]).get();
        let kept = registry.counter("commgraph_engine_records_kept_total", "", &[]).get();
        let batches = registry.counter("commgraph_engine_batches_total", "", &[]).get();
        assert_eq!(records_in, stats.records_in);
        assert_eq!(kept, stats.records_kept);
        assert_eq!(batches, 3);
        assert_eq!(registry.histogram("commgraph_engine_batch_records", "", &[]).count(), 3);
        assert!(
            registry.histogram("commgraph_engine_ingest_seconds", "", &[]).count() == 3,
            "one span per ingest call"
        );
        // 300 records stage into one batch: one busy span on the one shard.
        let busy =
            registry.histogram("commgraph_engine_worker_busy_seconds", "", &[("worker", "0")]);
        assert_eq!(busy.count(), 1);
        // No dedup configured → nothing dropped; watermark is the max ts.
        let dropped = registry.counter("commgraph_engine_dropped_records_total", "", &[]).get();
        assert_eq!(dropped, stats.records_in - stats.records_kept);
        let max_ts = recs.iter().map(|r| r.ts).max().unwrap() as f64;
        let watermark =
            registry.gauge("commgraph_ingest_watermark_seconds", "", &[("source", "engine")]).get();
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
        let mut e = StreamEngine::new(EngineConfig {
            monitored: Some(monitored),
            obs: Obs::new(registry.clone()),
            ..Default::default()
        })
        .unwrap();
        e.ingest(&recs).unwrap();
        let (_, stats) = e.finish().unwrap();
        assert_eq!(stats.records_kept, 100);
        let dropped = registry.counter("commgraph_engine_dropped_records_total", "", &[]).get();
        assert_eq!(dropped, 100, "every mirrored duplicate counted as dropped");
    }

    /// A run whose clock never advanced (or was never started) must report
    /// zero throughput, not inf/NaN.
    #[test]
    fn zero_duration_stats_report_zero_rates() {
        let stats = EngineStats { records_in: 1_000, elapsed_secs: 0.0, ..EngineStats::default() };
        assert_eq!(stats.records_per_sec(), 0.0);
        let nan = EngineStats { records_in: 5, elapsed_secs: f64::NAN, ..EngineStats::default() };
        assert_eq!(nan.records_per_sec(), 0.0);
        // A never-ingested engine reports elapsed 0.0 end to end.
        let engine = StreamEngine::new(EngineConfig::default()).unwrap();
        let (_, s) = engine.finish().unwrap();
        assert_eq!(s.elapsed_secs, 0.0);
        assert_eq!(s.records_per_sec(), 0.0);
    }

    #[test]
    fn empty_run_produces_no_graphs() {
        let mut e = StreamEngine::new(EngineConfig::default()).unwrap();
        e.ingest(&[]).unwrap();
        let (graphs, stats) = e.finish().unwrap();
        assert!(graphs.is_empty());
        assert_eq!(stats.records_in, 0);
    }
}
