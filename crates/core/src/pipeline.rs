//! Streaming pipeline: records in, hourly graph sequences out.
//!
//! [`Pipeline`] is a client of the window roll
//! ([`commgraph_graph::builder::WindowedBuilder`]): the roll decides which
//! window a record lands in and hands each closed window's graph over
//! once; the pipeline collects those graphs into a validated
//! [`commgraph_graph::series::GraphSequence`], pairs each with its dirty
//! set (what [`WindowAnalyzer`] consumes), and keeps the accounting — the
//! three outcome counts and the streaming-health metrics.

use algos::roles::{
    infer_roles_incremental, infer_roles_obs, RoleInference, RoleMemo, SegmentationMethod,
};
use commgraph_graph::builder::{survives_vantage_dedup, Inventory, Outcome, WindowedBuilder};
use commgraph_graph::diff::dirty_nodes;
use commgraph_graph::series::GraphSequence;
use commgraph_graph::{CommGraph, NodeId, Result as GraphResult};
use flowlog::record::ConnSummary;
use flowlog::time::bucket_start;
use obs::{names, AlertEngine, Obs, Scraper};
use segment::{SegmentPolicy, Segmentation};
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline configuration. The produced graphs are IP graphs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Window length in seconds (3600 for the paper's hourly graphs).
    pub window_len: u64,
    /// Monitored inventory for vantage dedup; `None` disables dedup.
    pub monitored: Option<HashSet<Ipv4Addr>>,
    /// Observability handle; every `ingest` call reports a span on the
    /// shared `commgraph_stage_seconds{stage="ingest"}` family. The default
    /// noop handle makes instrumentation cost one branch.
    pub obs: Obs,
    /// Maintain windows incrementally (default): diff each closed window
    /// against its predecessor so downstream analyses ([`WindowAnalyzer`])
    /// can reuse previous-window state, and report dirty-set sizes on
    /// `commgraph_window_dirty_nodes`. Turning this off restores the
    /// full-rebuild behavior — the oracle the incremental path is verified
    /// against.
    pub incremental: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { window_len: 3600, monitored: None, obs: Obs::noop(), incremental: true }
    }
}

/// Output of a finished pipeline.
#[derive(Debug)]
pub struct PipelineOutput {
    /// One graph per window, in time order.
    pub sequence: GraphSequence,
    /// Per-window dirty sets, aligned with `sequence`: the sorted nodes
    /// whose adjacency changed vs the previous window. Without incremental
    /// maintenance every window conservatively reports all its nodes dirty.
    pub dirty_sets: Vec<Vec<NodeId>>,
    /// Total records ingested:
    /// `kept_records + deduped_records + dropped_records`.
    pub total_records: u64,
    /// Records aggregated into a graph (the sum of the graphs' `conns`).
    pub kept_records: u64,
    /// Records vantage dedup left out: the non-canonical copy of a flow
    /// both monitored endpoints reported.
    pub deduped_records: u64,
    /// Records dropped because their window had already closed when they
    /// arrived (dedup-surviving or not).
    pub dropped_records: u64,
}

/// Streaming-health metric handles, resolved once at pipeline construction
/// (all noop — and free — without a registry).
#[derive(Debug)]
struct PipelineMetrics {
    watermark: obs::Gauge,
    roll_lag: obs::Histogram,
    late: obs::Counter,
    dropped_late: obs::Counter,
    dirty_nodes: obs::Histogram,
}

impl PipelineMetrics {
    fn resolve(o: &Obs) -> PipelineMetrics {
        PipelineMetrics {
            dirty_nodes: o.histogram(&names::WINDOW_DIRTY_NODES, ["pipeline"]),
            watermark: o.gauge(&names::INGEST_WATERMARK_SECONDS, ["pipeline"]),
            roll_lag: o.histogram(&names::WINDOW_ROLL_LAG_SECONDS, ["pipeline"]),
            late: o.counter(&names::PIPELINE_LATE_RECORDS_TOTAL, []),
            dropped_late: o.counter(&names::PIPELINE_DROPPED_LATE_RECORDS_TOTAL, []),
        }
    }
}

/// The streaming pipeline. Feed batches with [`Pipeline::ingest`], then call
/// [`Pipeline::finish`].
#[derive(Debug)]
pub struct Pipeline {
    roll: WindowedBuilder,
    /// The roll's vantage-dedup inventory (empty: none), for attributing a
    /// dropped record to lateness or to duplication.
    monitored: Inventory,
    /// Closed windows, each with its dirty set.
    closed: Vec<(CommGraph, Vec<NodeId>)>,
    total: u64,
    kept: u64,
    deduped: u64,
    dropped: u64,
    /// Highest record timestamp seen so far (the ingest watermark).
    watermark: u64,
    obs: Obs,
    metrics: PipelineMetrics,
    incremental: bool,
}

impl Pipeline {
    /// Create a pipeline from a config.
    pub fn new(cfg: PipelineConfig) -> Self {
        let monitored = Inventory::from(cfg.monitored.unwrap_or_default());
        let metrics = PipelineMetrics::resolve(&cfg.obs);
        Pipeline {
            roll: WindowedBuilder::new(cfg.window_len).with_monitored(monitored.clone()),
            monitored,
            closed: Vec::new(),
            total: 0,
            kept: 0,
            deduped: 0,
            dropped: 0,
            watermark: 0,
            obs: cfg.obs,
            metrics,
            incremental: cfg.incremental,
        }
    }

    /// Pair a closed window with its dirty set: the nodes whose adjacency
    /// changed since the previous closed window when `incremental`, every
    /// node otherwise (and for the first window, which has no baseline).
    fn push_closed(&mut self, g: CommGraph) {
        let dirty = match self.closed.last() {
            Some((prev, _)) if self.incremental => dirty_nodes(prev, &g),
            _ => g.nodes().to_vec(),
        };
        self.closed.push((g, dirty));
    }

    /// Ingest a batch of records. Timestamps may jitter within the open
    /// window; a record whose window has already closed is excluded from
    /// the graphs deterministically (and counted on
    /// `commgraph_pipeline_dropped_late_records_total`).
    ///
    /// Lateness accounting is dedup-aware: only records that survive
    /// vantage dedup can bump the late or dropped-late counters — the
    /// non-canonical copy of a double-reported flow never contributes to a
    /// graph, so counting it as "late" would conflate duplication with
    /// out-of-order delivery.
    pub fn ingest(&mut self, records: &[ConnSummary]) {
        let mut span = self.obs.stage_span("ingest");
        if span.trace_enabled() {
            span.trace_attr("records", &records.len().to_string());
        }
        self.total += records.len() as u64;
        for r in records {
            let behind_watermark = r.ts < self.watermark;
            self.watermark = self.watermark.max(r.ts);
            let (outcome, closed) = self.roll.add(r);
            if let Some(g) = closed {
                // Roll lag: how far into the new window its first record
                // lands — the freshness bound of the previous window's graph.
                self.metrics.roll_lag.record((r.ts - bucket_start(r.ts, g.window_len())) as f64);
                self.push_closed(g);
            }
            match outcome {
                Outcome::Kept => {
                    self.kept += 1;
                    if behind_watermark {
                        self.metrics.late.inc();
                    }
                }
                Outcome::Deduped => self.deduped += 1,
                // Behind the last closed window: excluded from graphs, so
                // it is a *drop*, not merely late.
                Outcome::Behind => {
                    self.dropped += 1;
                    if survives_vantage_dedup(&self.monitored, r) {
                        self.metrics.dropped_late.inc();
                    }
                }
            }
        }
        self.metrics.watermark.set(self.watermark as f64);
    }

    /// Close the stream and produce the graph sequence.
    pub fn finish(mut self) -> GraphResult<PipelineOutput> {
        let mut tspan = self.obs.trace_span("pipeline_finish");
        if let Some(g) = self.roll.finish() {
            self.push_closed(g);
        }
        if self.incremental {
            for (_, dirty) in &self.closed {
                self.metrics.dirty_nodes.record(dirty.len() as f64);
            }
        }
        let (graphs, dirty_sets): (Vec<_>, Vec<_>) = self.closed.into_iter().unzip();
        let sequence = GraphSequence::from_graphs(graphs)?;
        if tspan.is_enabled() {
            tspan.attr("windows", &sequence.len().to_string());
            tspan.attr("total_records", &self.total.to_string());
        }
        Ok(PipelineOutput {
            sequence,
            dirty_sets,
            total_records: self.total,
            kept_records: self.kept,
            deduped_records: self.deduped,
            dropped_records: self.dropped,
        })
    }
}

/// The similarity floor of the paper's method
/// ([`SegmentationMethod::paper_default`]), on both inference paths.
const MIN_SCORE: f64 = 0.1;

/// One window's analysis results (roles → µsegments → policy).
#[derive(Debug, Clone)]
pub struct WindowAnalysis {
    /// Inferred roles.
    pub roles: RoleInference,
    /// µsegmentation derived from the roles.
    pub segmentation: Segmentation,
    /// Default-deny policy learned from the window's graph: its edges and
    /// the service ports each carried.
    pub policy: SegmentPolicy,
}

/// Per-window analysis driver that exploits the paper's Figure 5
/// observation — consecutive windows barely differ — by carrying state from
/// one window to the next. Role inference ([`infer_roles_incremental`])
/// reads the window's dirty set: the similarity clique's edges between two
/// clean nodes are carried and only pairs with a dirty endpoint recounted,
/// and a refinement sub-run whose members are all clean and unchanged is
/// answered from the previous window. The previous segmentation + policy
/// let rule synthesis skip segment pairs whose membership and traffic did
/// not change ([`SegmentPolicy::learn_incremental_graph`]). Every stage
/// reads the window's graph only: the policy is learned from its edges and
/// their service ports, so an analysis costs what the graph costs, whatever
/// the record rate.
///
/// Retained between windows: the previous window's node ids, scored clique
/// and refinement sub-runs ([`RoleMemo`]), its segmentation and policy, and
/// one duration — nothing that grows with the number of windows seen, and
/// no more clique edges than the previous window scored.
///
/// Feed it consecutive windows (graph, dirty set) from a [`PipelineOutput`]
/// built with `incremental: true`. With
/// `incremental: false` every window runs the full-rebuild path — the
/// oracle the incremental results are bit-exact against (same labels,
/// modularity, and allow rules on every window; asserted by this module's
/// tests and the bench equivalence checks).
///
/// Warm windows record their estimated time saved vs the most recent full
/// rebuild on `commgraph_incremental_savings_seconds`.
///
/// The analyzer is also the deterministic tick source for metrics history
/// and alerting: attach a [`Scraper`] and [`AlertEngine`] with
/// [`WindowAnalyzer::with_telemetry`] and every analyzed window advances one
/// logical tick — scrape first (which also evaluates any recording rules
/// installed on the scraper, writing their synthetic series at the same
/// tick), evaluate alerts second, so alert expressions can reference
/// rule-produced series from the current tick. Ticks never read the clock,
/// so the same input stream produces a bit-identical alert transition
/// sequence on every run.
#[derive(Debug)]
pub struct WindowAnalyzer {
    incremental: bool,
    monitored: Inventory,
    obs: Obs,
    memo: Option<RoleMemo>,
    prev: Option<(Segmentation, SegmentPolicy)>,
    last_full_secs: Option<f64>,
    savings: obs::Histogram,
    subscription: Option<String>,
    dirty_gauge: obs::Gauge,
    telemetry: Option<(Arc<Scraper>, Arc<AlertEngine>)>,
    tick: u64,
}

impl WindowAnalyzer {
    /// New analyzer over the monitored inventory: the paper's
    /// Jaccard+Louvain method at `min_score` 0.1 and port-scoped policies,
    /// with noop observability.
    pub fn new(monitored: HashSet<Ipv4Addr>, incremental: bool) -> Self {
        let obs = Obs::noop();
        let savings = Self::resolve_savings(&obs);
        WindowAnalyzer {
            incremental,
            monitored: monitored.into(),
            obs,
            memo: None,
            prev: None,
            last_full_secs: None,
            savings,
            subscription: None,
            dirty_gauge: obs::Gauge::noop(),
            telemetry: None,
            tick: 0,
        }
    }

    fn resolve_savings(o: &Obs) -> obs::Histogram {
        o.histogram(&names::INCREMENTAL_SAVINGS_SECONDS, [])
    }

    fn resolve_dirty_gauge(o: &Obs, subscription: &str) -> obs::Gauge {
        o.gauge(&names::SUBSCRIPTION_DIRTY_NODES, [subscription])
    }

    /// Attach an observability handle (builder style): stage spans for
    /// similarity/cluster/policy plus the incremental-savings histogram.
    pub fn with_obs(mut self, o: Obs) -> Self {
        self.savings = Self::resolve_savings(&o);
        if let Some(sub) = &self.subscription {
            self.dirty_gauge = Self::resolve_dirty_gauge(&o, sub);
        }
        self.obs = o;
        self
    }

    /// Label this analyzer's health telemetry with a subscription id
    /// (builder style): each [`WindowAnalyzer::analyze`] call publishes the
    /// window's dirty-set size on
    /// `commgraph_subscription_dirty_nodes{subscription=...}`. Callers
    /// multiplexing many tenants should pass the label through an
    /// [`obs::LabelCap`] first to bound cardinality.
    pub fn with_subscription(mut self, subscription: &str) -> Self {
        self.dirty_gauge = Self::resolve_dirty_gauge(&self.obs, subscription);
        self.subscription = Some(subscription.to_string());
        self
    }

    /// Drive metrics history and alerting from window rolls (builder
    /// style): after each analyzed window the analyzer advances one logical
    /// tick, scrapes the scraper's registry into its TSDB, and evaluates the
    /// alert rules against the freshly scraped history. The tick counter
    /// starts at zero and never reads the wall clock, so replaying the same
    /// stream yields a bit-identical alert transition sequence.
    pub fn with_telemetry(mut self, scraper: Arc<Scraper>, alerts: Arc<AlertEngine>) -> Self {
        self.telemetry = Some((scraper, alerts));
        self
    }

    /// Logical ticks elapsed (windows analyzed) since construction; only
    /// advanced when telemetry is attached.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Analyze one window. `dirty` is the window's dirty set from
    /// [`PipelineOutput::dirty_sets`]. Windows must be fed consecutively —
    /// a dirty set is only meaningful relative to the immediately
    /// preceding window.
    ///
    /// `records` is not read: the policy is learned from `g`
    /// ([`SegmentPolicy::learn_graph`]), which equals learning over the
    /// records `g` kept. The argument stays for the callers that pass it.
    pub fn analyze(
        &mut self,
        g: &CommGraph,
        dirty: &[NodeId],
        _records: &[ConnSummary],
    ) -> segment::Result<WindowAnalysis> {
        #[expect(
            clippy::disallowed_methods,
            reason = "times the analysis for the incremental-savings histogram only; no result reads it"
        )]
        let t0 = Instant::now();
        let warm = self.incremental && self.memo.is_some();
        let (roles, memo) = if self.incremental {
            let (r, m) =
                infer_roles_incremental(g, dirty, self.memo.as_ref(), MIN_SCORE, &self.obs);
            (r, Some(m))
        } else {
            let method = SegmentationMethod::JaccardLouvain { min_score: MIN_SCORE };
            (infer_roles_obs(g, &method, &self.obs), None)
        };
        let monitored = &self.monitored;
        let segmentation = Segmentation::from_inference(g, &roles, |ip| monitored.contains(&ip))?;
        let policy = {
            let _span = self.obs.stage_span("policy");
            match &self.prev {
                Some((prev_seg, prev_policy)) if warm => {
                    let dirty_ips: HashSet<Ipv4Addr> =
                        dirty.iter().filter_map(|n| n.ip()).collect();
                    SegmentPolicy::learn_incremental_graph(
                        g,
                        &segmentation,
                        prev_seg,
                        prev_policy,
                        &dirty_ips,
                        true,
                    )
                }
                _ => SegmentPolicy::learn_graph(g, &segmentation, true),
            }
        };
        let elapsed = t0.elapsed().as_secs_f64();
        if warm {
            if let Some(full) = self.last_full_secs {
                self.savings.record((full - elapsed).max(0.0));
            }
        } else {
            self.last_full_secs = Some(elapsed);
        }
        self.memo = memo;
        self.prev = Some((segmentation.clone(), policy.clone()));
        self.dirty_gauge.set(dirty.len() as f64);
        if let Some((scraper, alerts)) = &self.telemetry {
            self.tick += 1;
            scraper.scrape(self.tick);
            alerts.evaluate(self.tick, scraper.store());
        }
        Ok(WindowAnalysis { roles, segmentation, policy })
    }

    /// Analyze every window of a finished pipeline in order.
    pub fn analyze_output(&mut self, out: &PipelineOutput) -> segment::Result<Vec<WindowAnalysis>> {
        let windows = out.sequence.graphs().iter().zip(&out.dirty_sets);
        windows.map(|(g, dirty)| self.analyze(g, dirty, &[])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlog::record::FlowKey;

    fn rec(ts: u64, i: u8) -> ConnSummary {
        ConnSummary {
            ts,
            key: FlowKey::tcp(Ipv4Addr::new(10, 0, 0, i), 40_000, Ipv4Addr::new(10, 0, 1, 1), 443),
            pkts_sent: 1,
            pkts_rcvd: 1,
            bytes_sent: 100,
            bytes_rcvd: 100,
        }
    }

    /// Finish `p`, asserting record conservation on the way out: every
    /// ingested record was kept, deduped or dropped, and the graphs hold
    /// exactly the kept ones.
    fn finish(p: Pipeline) -> PipelineOutput {
        let out = p.finish().unwrap();
        assert_eq!(
            out.total_records,
            out.kept_records + out.deduped_records + out.dropped_records,
            "in = kept + deduped + dropped"
        );
        let in_graphs: u64 = out.sequence.graphs().iter().map(|g| g.totals().conns).sum();
        assert_eq!(out.kept_records, in_graphs, "kept = Σ graphs' conns");
        out
    }

    #[test]
    fn produces_windowed_sequence() {
        let mut p = Pipeline::new(PipelineConfig::default());
        p.ingest(&[rec(0, 1), rec(1800, 2)]);
        p.ingest(&[rec(3600, 3), rec(5400, 4)]);
        let out = finish(p);
        assert_eq!(out.sequence.len(), 2);
        assert_eq!(out.total_records, 4);
        assert_eq!(out.sequence.graphs()[0].window_start(), 0);
        assert_eq!(out.sequence.graphs()[1].window_start(), 3600);
    }

    #[test]
    fn empty_pipeline_is_fine() {
        let out = finish(Pipeline::new(PipelineConfig::default()));
        assert!(out.sequence.is_empty() && out.dirty_sets.is_empty());
        assert_eq!(out.total_records, 0);
    }

    #[test]
    fn ingest_spans_reach_the_registry() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut p =
            Pipeline::new(PipelineConfig { obs: Obs::new(registry.clone()), ..Default::default() });
        p.ingest(&[rec(0, 1), rec(30, 2)]);
        p.ingest(&[rec(3600, 3)]);
        let hist = registry.histogram(&obs::names::STAGE_SECONDS, ["ingest"]);
        assert_eq!(hist.count(), 2, "one span per ingest call");
        assert_eq!(finish(p).total_records, 3);
    }

    #[test]
    fn streaming_health_metrics_track_watermark_lag_and_lateness() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut p =
            Pipeline::new(PipelineConfig { obs: Obs::new(registry.clone()), ..Default::default() });
        // First window opens at ts 100; second window's first record lands
        // 7 s into the hour; one record then arrives behind the watermark
        // (still inside the open window, as dedup'd vantage copies do).
        p.ingest(&[rec(100, 1), rec(3607, 2), rec(3603, 3)]);
        let watermark = registry.gauge(&names::INGEST_WATERMARK_SECONDS, ["pipeline"]).get();
        assert_eq!(watermark, 3607.0);
        let lag = registry.histogram(&names::WINDOW_ROLL_LAG_SECONDS, ["pipeline"]);
        assert_eq!(lag.count(), 1, "only the roll into window 3600 counts");
        assert_eq!(lag.sum(), 7.0);
        let late = registry.counter(&names::PIPELINE_LATE_RECORDS_TOTAL, []).get();
        assert_eq!(late, 1, "ts 3603 arrived behind the 3607 watermark");
        let out = finish(p);
        assert_eq!(out.total_records, 3, "metrics never change what is computed");
    }

    #[test]
    fn vantage_duplicates_behind_watermark_are_not_late() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let monitored: HashSet<Ipv4Addr> =
            [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 1, 1)].into_iter().collect();
        let mut p = Pipeline::new(PipelineConfig {
            monitored: Some(monitored),
            obs: Obs::new(registry.clone()),
            ..Default::default()
        });
        // The canonical copy of a double-monitored flow, a later record
        // that advances the watermark, then the interleaved non-canonical
        // duplicate: behind the watermark by timestamp, but dedup-doomed.
        let a = rec(100, 1);
        p.ingest(&[a, rec(200, 2), a.mirrored()]);
        let late = registry.counter(&names::PIPELINE_LATE_RECORDS_TOTAL, []).get();
        assert_eq!(late, 0, "a duplicate dedup drops anyway is not out-of-order input");
        // A genuinely out-of-order record that survives dedup still counts.
        p.ingest(&[rec(150, 3)]);
        let late = registry.counter(&names::PIPELINE_LATE_RECORDS_TOTAL, []).get();
        assert_eq!(late, 1);
        let out = finish(p);
        assert_eq!(out.total_records, 4, "rate accounting still counts raw records");
        assert_eq!((out.kept_records, out.deduped_records, out.dropped_records), (3, 1, 0));
    }

    #[test]
    fn records_behind_closed_windows_are_dropped_deterministically() {
        let run = || {
            let registry = std::sync::Arc::new(obs::Registry::new());
            let mut p = Pipeline::new(PipelineConfig {
                obs: Obs::new(registry.clone()),
                ..Default::default()
            });
            // The reordered fixture: window 0 closes when ts 3700 arrives,
            // then a straggler from window 0 shows up.
            p.ingest(&[rec(100, 1), rec(3700, 2)]);
            p.ingest(&[rec(200, 3), rec(3800, 4)]);
            let dropped = registry.counter(&names::PIPELINE_DROPPED_LATE_RECORDS_TOTAL, []).get();
            let late = registry.counter(&names::PIPELINE_LATE_RECORDS_TOTAL, []).get();
            let out = finish(p);
            let shape: Vec<(u64, u64)> = out
                .sequence
                .graphs()
                .iter()
                .map(|g| (g.window_start(), g.totals().conns))
                .collect();
            assert_eq!((out.kept_records, out.deduped_records, out.dropped_records), (3, 0, 1));
            (dropped, late, out.total_records, shape)
        };
        let (dropped, late, total, shape) = run();
        assert_eq!(dropped, 1, "the straggler is counted as a dropped-late record");
        assert_eq!(late, 0, "a drop is not additionally counted as merely late");
        assert_eq!(total, 4, "rate accounting still counts raw records");
        assert_eq!(
            shape,
            vec![(0, 1), (3600, 2)],
            "window 0 emitted exactly once, without the straggler"
        );
        assert_eq!((dropped, late, total, shape), run(), "replay is bit-identical");
    }

    /// A slowly-churning three-window stream: a stable three-tier core with
    /// one conversation whose volume changes each window and one node that
    /// appears only in the last window.
    fn churn_stream() -> Vec<ConnSummary> {
        let node = |tier: u8, i: u8| Ipv4Addr::new(10, 0, tier, i);
        let flow = |ts: u64, a: Ipv4Addr, b: Ipv4Addr, port: u16, bytes: u64| ConnSummary {
            ts,
            key: FlowKey::tcp(a, 40_000, b, port),
            pkts_sent: bytes / 1000,
            pkts_rcvd: bytes / 4000,
            bytes_sent: bytes,
            bytes_rcvd: bytes / 4,
        };
        let mut recs = Vec::new();
        for w in 0..3u64 {
            let base = w * 3600;
            for f in 0..3u8 {
                for b in 0..2u8 {
                    recs.push(flow(base + 10, node(0, f), node(1, b), 8080, 100_000));
                }
            }
            for b in 0..2u8 {
                recs.push(flow(base + 20, node(1, b), node(2, 1), 5432, 500_000));
            }
            // The churn: frontend 0's volume to backend 0 drifts per window.
            recs.push(flow(base + 30, node(0, 0), node(1, 0), 8080, 10_000 * (w + 1)));
            if w == 2 {
                recs.push(flow(base + 40, node(0, 9), node(1, 0), 8080, 50_000));
            }
        }
        recs
    }

    #[test]
    fn incremental_pipeline_matches_full_rebuild_oracle() {
        let recs = churn_stream();
        let run = |incremental: bool| {
            let mut p = Pipeline::new(PipelineConfig { incremental, ..Default::default() });
            p.ingest(&recs);
            let out = finish(p);
            let monitored: HashSet<Ipv4Addr> =
                recs.iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect();
            let mut an = WindowAnalyzer::new(monitored, incremental);
            an.analyze_output(&out).unwrap()
        };
        let incremental = run(true);
        let full = run(false);
        assert_eq!(incremental.len(), 3);
        assert_eq!(incremental.len(), full.len());
        for (w, (i, f)) in incremental.iter().zip(&full).enumerate() {
            assert_eq!(i.roles.labels, f.roles.labels, "window {w}");
            assert_eq!(i.roles.clustering_modularity, f.roles.clustering_modularity, "window {w}");
            assert_eq!(i.policy.rules(), f.policy.rules(), "bit-exact policy, window {w}");
            let inames: Vec<&str> =
                i.segmentation.segments().iter().map(|s| s.name.as_str()).collect();
            let fnames: Vec<&str> =
                f.segmentation.segments().iter().map(|s| s.name.as_str()).collect();
            assert_eq!(inames, fnames, "window {w}");
        }
    }

    /// A churning eight-window stream for `seed`: a three-tier core
    /// (frontends → backends → databases, every frontend → one DNS host)
    /// with
    /// - drift: two random conversations re-drawn every window;
    /// - a burst: fourteen random conversations on every fourth window;
    /// - departures and arrivals: frontend `f` sits out every window with
    ///   `(w + f) % 5 == 0`, and a ninth frontend joins from window 3 on;
    /// - a pure volume change that flips a direction class: frontend 0's
    ///   conversation with backend 0 is mostly outbound on even windows and
    ///   mostly inbound on odd ones, same endpoints and port.
    fn seeded_churn_stream(seed: u64) -> Vec<ConnSummary> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let node = |tier: u8, i: u8| Ipv4Addr::new(10, 0, tier, i);
        let flow =
            |ts: u64, a: Ipv4Addr, b: Ipv4Addr, port: u16, sent: u64, rcvd: u64| ConnSummary {
                ts,
                key: FlowKey::tcp(a, 40_000, b, port),
                pkts_sent: sent / 1000 + 1,
                pkts_rcvd: rcvd / 1000 + 1,
                bytes_sent: sent,
                bytes_rcvd: rcvd,
            };
        let hosts: Vec<Ipv4Addr> = (0..9)
            .map(|f| node(0, f))
            .chain((0..4).map(|b| node(1, b)))
            .chain((0..2).map(|d| node(2, d)))
            .collect();
        let random = |ts: u64, rng: &mut StdRng| {
            let a = hosts[rng.random_range(0..hosts.len())];
            let b = hosts[rng.random_range(0..hosts.len())];
            let port = [22, 80, 443, 8080][rng.random_range(0..4usize)];
            let (sent, rcvd) = (rng.random_range(1..200_000u64), rng.random_range(1..200_000u64));
            (a != b).then(|| flow(ts, a, b, port, sent, rcvd))
        };
        let mut recs = Vec::new();
        for w in 0..8u64 {
            let ts = w * 3600 + 10;
            let fronts = if w >= 3 { 9 } else { 8 };
            for f in (0..fronts).filter(|&f| (w + u64::from(f)) % 5 != 0) {
                for b in 0..4 {
                    let flipped = f == 0 && b == 0 && w % 2 == 1;
                    let (sent, rcvd) = if flipped { (25_000, 100_000) } else { (100_000, 25_000) };
                    recs.push(flow(ts, node(0, f), node(1, b), 8080, sent, rcvd));
                }
                recs.push(flow(ts, node(0, f), node(9, 1), 53, 200, 400));
            }
            for b in 0..4 {
                for d in 0..2 {
                    recs.push(flow(ts, node(1, b), node(2, d), 5432, 500_000, 100_000));
                }
            }
            let extra = if w % 4 == 3 { 14 } else { 2 };
            recs.extend((0..extra).filter_map(|_| random(ts, &mut rng)));
        }
        recs
    }

    /// Incremental ≡ full rebuild on 32 seeds of a churning stream, through
    /// `Pipeline` and both `WindowAnalyzer`s: the same labels, modularity
    /// bits, segment names and allow rules at every window.
    #[test]
    fn incremental_analysis_matches_full_rebuild_across_seeds() {
        for seed in 0..32u64 {
            let recs = seeded_churn_stream(seed);
            let monitored: HashSet<Ipv4Addr> =
                recs.iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect();
            let run = |incremental: bool| {
                let mut p = Pipeline::new(PipelineConfig { incremental, ..Default::default() });
                p.ingest(&recs);
                let out = finish(p);
                let mut an = WindowAnalyzer::new(monitored.clone(), incremental);
                an.analyze_output(&out).unwrap()
            };
            let (incremental, full) = (run(true), run(false));
            assert_eq!(incremental.len(), 8, "seed {seed}");
            assert_eq!(full.len(), 8, "seed {seed}");
            for (w, (i, f)) in incremental.iter().zip(&full).enumerate() {
                let at = format!("seed {seed}, window {w}");
                assert_eq!(i.roles.labels, f.roles.labels, "{at}");
                assert_eq!(
                    i.roles.clustering_modularity.to_bits(),
                    f.roles.clustering_modularity.to_bits(),
                    "{at}"
                );
                let names = |a: &WindowAnalysis| -> Vec<String> {
                    a.segmentation.segments().iter().map(|s| s.name.clone()).collect()
                };
                assert_eq!(names(i), names(f), "{at}");
                assert_eq!(i.policy.rules(), f.policy.rules(), "{at}");
            }
        }
    }

    /// The analyzer learns each window's policy from its graph alone; on a
    /// stream with nothing behind the roll and no twinless copies that is
    /// the record learner over the window's records, warm windows included.
    #[test]
    fn window_policies_equal_the_record_learner() {
        let recs = churn_stream();
        let mut p = Pipeline::new(PipelineConfig::default());
        p.ingest(&recs);
        let out = finish(p);
        let monitored: HashSet<Ipv4Addr> =
            recs.iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect();
        let analyses = WindowAnalyzer::new(monitored, true).analyze_output(&out).unwrap();
        assert_eq!(analyses.len(), 3);
        for (a, g) in analyses.iter().zip(out.sequence.graphs()) {
            let start = g.window_start();
            let window: Vec<ConnSummary> =
                recs.iter().filter(|r| bucket_start(r.ts, 3600) == start).copied().collect();
            let want = SegmentPolicy::learn(&window, &a.segmentation, true);
            assert_eq!(a.policy.rules(), want.rules(), "window {start}");
            assert!(a.policy.rule_count() > 0);
        }
    }

    #[test]
    fn dirty_sets_shrink_on_steady_windows_and_metrics_flow() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let recs = churn_stream();
        let mut p =
            Pipeline::new(PipelineConfig { obs: Obs::new(registry.clone()), ..Default::default() });
        p.ingest(&recs);
        let out = finish(p);
        assert_eq!(out.dirty_sets.len(), 3);
        let n0 = out.sequence.graphs()[0].node_count();
        assert_eq!(out.dirty_sets[0].len(), n0, "first window is fully dirty");
        assert!(
            out.dirty_sets[1].len() < n0,
            "steady window dirties only the churned conversation: {:?}",
            out.dirty_sets[1]
        );
        let dirty_hist = registry.histogram(&names::WINDOW_DIRTY_NODES, ["pipeline"]);
        assert_eq!(dirty_hist.count(), 3, "one dirty-set sample per window");

        // Savings histogram: warm windows 2 and 3 each record one sample.
        let monitored: HashSet<Ipv4Addr> =
            recs.iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect();
        let mut an = WindowAnalyzer::new(monitored, true).with_obs(Obs::new(registry.clone()));
        an.analyze_output(&out).unwrap();
        let savings = registry.histogram(&names::INCREMENTAL_SAVINGS_SECONDS, []);
        assert_eq!(savings.count(), 2, "two warm windows record savings");
    }

    #[test]
    fn window_rolls_drive_ticks_scrapes_and_alert_evaluation() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let o = Obs::new(registry.clone());
        let recs = churn_stream();
        let mut p = Pipeline::new(PipelineConfig { obs: o.clone(), ..Default::default() });
        p.ingest(&recs);
        let out = finish(p);

        let store = Arc::new(obs::Tsdb::new(obs::TsdbConfig::default()));
        let scraper = Arc::new(Scraper::new(registry.clone(), store));
        // The analyzer's tick loop evaluates recording rules implicitly:
        // each scrape writes this synthetic per-tick series back into the
        // store, at the same tick as the registry samples it derives from.
        scraper.add_recording_rule(
            obs::RecordingRule::new(
                "pipeline:late_records:delta1",
                "delta(commgraph_pipeline_late_records_total[1])",
            )
            .unwrap(),
        );
        let alerts = Arc::new(AlertEngine::new(o.clone()));
        // Total records never move between ticks once ingest is done, so
        // this threshold fires as soon as its hold elapses.
        alerts.add_rule(
            obs::AlertRule::query("records_seen", "commgraph_pipeline_late_records_total >= 0")
                .unwrap()
                .with_for_ticks(1),
        );
        let monitored: HashSet<Ipv4Addr> =
            recs.iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect();
        let mut an = WindowAnalyzer::new(monitored, true)
            .with_obs(o)
            .with_subscription("tenant-a")
            .with_telemetry(scraper.clone(), alerts.clone());
        assert_eq!(an.tick(), 0);
        an.analyze_output(&out).unwrap();

        assert_eq!(an.tick(), 3, "one logical tick per analyzed window");
        assert_eq!(scraper.store().last_tick(), 3);
        let dirty = registry.gauge(&names::SUBSCRIPTION_DIRTY_NODES, ["tenant-a"]).get();
        assert_eq!(dirty, out.dirty_sets[2].len() as f64, "gauge holds the last window's size");
        // The rule held through tick 1 and fired at tick 2.
        let fired: Vec<(u64, obs::AlertState)> =
            alerts.history().iter().map(|t| (t.tick, t.to)).collect();
        assert_eq!(
            fired,
            vec![(1, obs::AlertState::Pending), (2, obs::AlertState::Firing)],
            "deterministic transition sequence"
        );
        // The recording rule ran once per window tick, appending its
        // synthetic series at the same ticks as the scraped samples: one
        // series whose samples in each two-tick window `[t - 1, t]` count
        // 1, 2, 2 at ticks 1..=3 — one sample at each and none at tick 0.
        let per_tick = "count_over_time(pipeline:late_records:delta1[1])";
        assert_eq!(
            obs::query::query_range_json(scraper.store(), per_tick, 0, 3, 1).unwrap(),
            format!(
                "{{\"expr\":\"{per_tick}\",\"from\":0,\"to\":3,\"step\":1,\"series\":[\
                 {{\"name\":\"\",\"labels\":{{}},\"points\":[[1,1],[2,2],[3,2]]}}]}}"
            ),
            "one rule sample per analyzed window"
        );
        let written = registry
            .counter(&names::QUERY_RULE_SERIES_TOTAL, ["pipeline:late_records:delta1"])
            .get();
        assert_eq!(written, 3, "the rule's counter advanced by the samples it wrote");
    }

    #[test]
    fn non_incremental_pipeline_reports_all_nodes_dirty() {
        let mut p = Pipeline::new(PipelineConfig { incremental: false, ..Default::default() });
        p.ingest(&churn_stream());
        let out = finish(p);
        for (g, dirty) in out.sequence.graphs().iter().zip(&out.dirty_sets) {
            assert_eq!(dirty.len(), g.node_count(), "conservative all-dirty");
        }
    }

    /// One flow between hosts `l` and `r` of 10.0.0.0/24 at `ts`.
    fn flow(ts: u64, l: u8, r: u8) -> ConnSummary {
        let ip = |d| Ipv4Addr::new(10, 0, 0, d);
        ConnSummary { key: FlowKey::tcp(ip(l), 40_000, ip(r), 443), ..rec(ts, 0) }
    }

    fn minute_windows(incremental: bool) -> Pipeline {
        Pipeline::new(PipelineConfig { window_len: 60, incremental, ..Default::default() })
    }

    #[test]
    fn dirty_tracking_marks_first_window_fully_dirty() {
        let mut p = minute_windows(true);
        p.ingest(&[flow(0, 1, 2), flow(60, 1, 2)]);
        let out = finish(p);
        assert_eq!(out.dirty_sets.len(), 2);
        assert_eq!(out.dirty_sets[0], out.sequence.graphs()[0].nodes(), "no baseline ⇒ all dirty");
        assert!(out.dirty_sets[1].is_empty(), "identical second window ⇒ clean");
    }

    #[test]
    fn dirty_tracking_flags_only_changed_nodes() {
        let mut p = minute_windows(true);
        // Window 0: edges (1,2) and (3,4). Window 1: (1,2) identical, (3,4)
        // replaced by (3,5).
        p.ingest(&[flow(0, 1, 2), flow(0, 3, 4), flow(60, 1, 2), flow(60, 3, 5)]);
        let out = finish(p);
        let want: Vec<NodeId> =
            [3, 4, 5].into_iter().map(|d| NodeId::Ip(Ipv4Addr::new(10, 0, 0, d))).collect();
        assert_eq!(out.dirty_sets[1], want);
    }

    #[test]
    fn untracked_drain_reports_everything_dirty() {
        let mut p = minute_windows(false);
        p.ingest(&[flow(0, 1, 2)]);
        assert_eq!(finish(p).dirty_sets[0].len(), 2);
    }

    #[test]
    fn dedup_config_applies() {
        let monitored: HashSet<Ipv4Addr> =
            [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 1, 1)].into_iter().collect();
        let mut p =
            Pipeline::new(PipelineConfig { monitored: Some(monitored), ..Default::default() });
        let r = rec(0, 1);
        p.ingest(&[r, r.mirrored()]);
        let out = finish(p);
        assert_eq!(out.sequence.graphs()[0].totals().bytes(), 200, "counted once");
        assert_eq!(out.total_records, 2, "rate counts raw records");
        assert_eq!((out.kept_records, out.deduped_records, out.dropped_records), (1, 1, 0));
    }
}
