//! The analytics front door: a fixed pool of shard threads serving every
//! subscription (§3.2: one tier, "a handful of VMs", all tenants).
//!
//! A shard *is* a thread. [`ShardedEngine::new`] spawns `shards` long-lived
//! threads and nothing ever spawns another; a new subscription is placed on
//! the shard with the fewest residents (ties to the lowest index) at first
//! contact, and that thread alone owns its window tables (see
//! `crate::shard`): at most two open windows per subscription, one window
//! of allowed lateness, each closed window assembled during ingest. The
//! front door keeps only routing, delivery dedup and telemetry: it stages
//! records per shard and hands a batch over once 4096 are staged, so a
//! flood of tiny calls costs one channel message per ~4096 records.
//! Subscriptions on one shard share that thread's time and its bounded
//! queue, never its state. Placement balances subscription counts, not
//! their sizes: heavy-tailed tenants can still load one shard more.
//!
//! Determinism contract: at [`ShardedEngine::finish`] every shard assembles
//! its subscriptions' still-open windows, in parallel — a subscription is on
//! exactly one shard, so there is nothing to merge — and reports come back
//! sorted by subscription id: bit-identical output at any shard count,
//! placement and batch size.
//!
//! Per-subscription telemetry is labeled by subscription id behind an
//! [`obs::LabelCap`]: the first `LABEL_CAP` (64) subscriptions get their
//! own label value, the rest share the `overflow` bucket, and counter
//! totals are conserved either way. Metric help text lives in `obs::names` (the
//! exporters read it from there); registration sites here pass none.

use crate::error::{Error, Result};
use crate::shard::Shard;
use commgraph_graph::hash::FixedState;
use commgraph_graph::CommGraph;
use flowlog::record::ConnSummary;
use flowlog::time::bucket_start;
use obs::{names, Counter, Gauge, Histogram, Level, Obs, SpanGuard};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::Ipv4Addr;

/// Configuration of the analytics front door.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Shard threads to spread subscriptions over (≥ 1) — the tier's whole
    /// thread budget, whatever the subscription count.
    pub shards: usize,
    /// Window length in seconds (3600 for hourly graphs).
    pub window_len: u64,
    /// Monitored inventory for vantage dedup (`None` disables dedup).
    pub monitored: Option<HashSet<Ipv4Addr>>,
    /// Observability handle for the `commgraph_engine_*` and
    /// `commgraph_subscription_*` families and the per-shard gauges; the
    /// default noop handle records nothing and costs nothing. Metrics never
    /// change what the engine computes.
    pub obs: Obs,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig { shards: 2, window_len: 3600, monitored: None, obs: Obs::noop() }
    }
}

/// Distinct subscription label values admitted before new ones land in the
/// shared `overflow` bucket (see [`obs::LabelCap`]).
pub(crate) const LABEL_CAP: usize = 64;

/// Sequence numbers a source may arrive out of order by and still be told
/// apart from a re-delivery.
const REORDER_WINDOW: u64 = 4096;

/// Delivery-dedup state of one source: the high-water sequence number and
/// one seen-bit for each of the [`REORDER_WINDOW`] numbers up to it.
// bound: 528 bytes per source, however many deliveries it makes.
#[derive(Debug)]
struct SeqWindow {
    high: Option<u64>,
    /// Bit `seq % REORDER_WINDOW` is set once `seq` was accepted.
    seen: [u64; (REORDER_WINDOW / 64) as usize],
}

impl SeqWindow {
    fn new() -> Self {
        SeqWindow { high: None, seen: [0; (REORDER_WINDOW / 64) as usize] }
    }

    /// `None` admits `seq` (first arrival); otherwise the `outcome` it is
    /// refused under: `duplicate`, or `late` when it is a whole window behind
    /// the high-water mark and whether it was seen is no longer known.
    fn admit(&mut self, seq: u64) -> Option<&'static str> {
        let slot = |s: u64| ((s % REORDER_WINDOW / 64) as usize, 1u64 << (s % 64));
        let (word, bit) = slot(seq);
        if let Some(high) = self.high.filter(|&high| seq <= high) {
            if high - seq >= REORDER_WINDOW {
                return Some("late");
            }
            let was_seen = self.seen[word] & bit != 0;
            self.seen[word] |= bit;
            return was_seen.then_some("duplicate");
        }
        // The window slides up to `seq`: the slots of the numbers it skips
        // over still hold bits from a window ago.
        match self.high {
            Some(high) if seq - high < REORDER_WINDOW => {
                for skipped in high + 1..seq {
                    let (word, bit) = slot(skipped);
                    self.seen[word] &= !bit;
                }
            }
            _ => self.seen.fill(0),
        }
        self.seen[word] |= bit;
        self.high = Some(seq);
        None
    }
}

/// What the front door keeps per subscription.
// bound: per source, one 528-byte `SeqWindow` in `windows`, its name's bytes
// and one `sources` entry. Both grow with distinct sources, never with
// records or deliveries.
#[derive(Debug)]
struct Sub {
    shard: usize,
    /// Index of this subscription among its shard's residents.
    slot: usize,
    records_in: u64,
    /// High-water record timestamp of this subscription.
    watermark_ts: u64,
    /// End of the newest window any record opened (0 before the first).
    newest_window_end: u64,
    /// Label value the cardinality cap assigned (own id or `overflow`).
    label: String,
    records: Counter,
    watermark: Gauge,
    roll_lag: Gauge,
    /// Source name → its dedup window in `windows`: one hash of the name and
    /// one probe per delivery. Names come from the subscription's own agents;
    /// the fixed hash's trade is DESIGN §5's.
    sources: HashMap<Box<str>, usize, FixedState>,
    windows: Vec<SeqWindow>,
}

/// Everything one subscription produced: its windowed graphs and the
/// counters of its run.
#[derive(Debug)]
pub struct SubscriptionReport {
    /// The subscription id records were ingested under.
    pub subscription: String,
    /// One graph per closed window, in time order.
    pub graphs: Vec<CommGraph>,
    /// The subscription's counters.
    pub stats: EngineStats,
}

/// Counters describing one subscription's run through the engine.
#[derive(Debug, Clone, Default)]
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
}

/// Cross-shard totals, summed deterministically at finish.
#[derive(Debug, Clone, Default)]
pub struct ShardedStats {
    /// Shard threads spawned and joined.
    pub shards: usize,
    /// Sum of per-subscription `records_in`.
    pub records_in: u64,
    /// Sum of per-subscription `records_kept`.
    pub(crate) records_kept: u64,
    /// Sum of per-subscription distinct edge entries — the memory driver
    /// across the whole tier.
    pub edge_entries: usize,
    /// Subscriptions resident on each shard, by shard index — the balance
    /// picture (each placed on the least-resident shard at first contact).
    pub per_shard_subscriptions: Vec<usize>,
}

/// Front-door `commgraph_engine_*` handles, resolved once at construction.
/// All noop (and therefore free) when the config carried no registry.
struct EngineMetrics {
    records_in: Counter,
    records_kept: Counter,
    dropped: Counter,
    batches: Counter,
    batch_records: Histogram,
    ingest_seconds: Histogram,
    watermark: Gauge,
}

/// The running engine. Create, `ingest` batches tagged with their
/// subscription, then `finish` for per-subscription reports plus totals.
pub struct ShardedEngine {
    cfg: ShardedConfig,
    shards: Vec<Shard>,
    /// Subscriptions resident on each shard.
    resident: Vec<usize>,
    cap: obs::LabelCap,
    /// Subscription id → position in `subs`; looked up by `&str`, so only
    /// first contact allocates.
    index: BTreeMap<String, usize>,
    subs: Vec<Sub>,
    /// Highest record timestamp seen by any subscription.
    watermark: u64,
    metrics: EngineMetrics,
}

impl ShardedEngine {
    /// Validate the config and spawn the shard threads — the only threads
    /// this engine ever starts.
    pub fn new(cfg: ShardedConfig) -> Result<Self> {
        if cfg.shards == 0 {
            return Err(Error::InvalidConfig("need at least one shard".into()));
        }
        if cfg.window_len == 0 {
            return Err(Error::InvalidConfig("window length must be positive".into()));
        }
        let shards = (0..cfg.shards).map(|i| Shard::spawn(i, &cfg)).collect::<Result<_>>();
        Ok(ShardedEngine::with_shards(cfg, shards?))
    }

    fn with_shards(cfg: ShardedConfig, shards: Vec<Shard>) -> Self {
        let o = cfg.obs.clone();
        ShardedEngine {
            resident: vec![0; shards.len()],
            shards,
            cap: obs::LabelCap::new(&o, "subscription", LABEL_CAP),
            index: BTreeMap::new(),
            subs: Vec::new(),
            watermark: 0,
            metrics: EngineMetrics {
                records_in: o.counter(&names::ENGINE_RECORDS_IN_TOTAL, []),
                records_kept: o.counter(&names::ENGINE_RECORDS_KEPT_TOTAL, []),
                dropped: o.counter(&names::ENGINE_DROPPED_RECORDS_TOTAL, []),
                batches: o.counter(&names::ENGINE_BATCHES_TOTAL, []),
                batch_records: o.histogram(&names::ENGINE_BATCH_RECORDS, []),
                ingest_seconds: o.histogram(&names::ENGINE_INGEST_SECONDS, []),
                watermark: o.gauge(&names::INGEST_WATERMARK_SECONDS, ["engine"]),
            },
            cfg,
        }
    }

    /// Position of `subscription` in `subs`, registering it (its shard, its
    /// health handles under the capped label value) on first contact.
    fn resolve(&mut self, subscription: &str) -> usize {
        if let Some(&at) = self.index.get(subscription) {
            return at;
        }
        // The least-resident shard, ties to the lowest index.
        let shard = (0..self.resident.len()).min_by_key(|&s| self.resident[s]).unwrap_or(0);
        let slot = self.resident[shard];
        self.resident[shard] += 1;
        let o = &self.cfg.obs;
        o.gauge(&names::SHARD_SUBSCRIPTION_ENTRIES, [&shard.to_string()])
            .set(self.resident[shard] as f64);
        let label = self.cap.resolve(subscription);
        let sub = [label.as_str()];
        // Present at zero from first contact; a refusal looks its handle up.
        for outcome in ["duplicate", "late"] {
            o.counter(&names::SUBSCRIPTION_DEDUP_DROPPED_RECORDS_TOTAL, [&label, outcome]);
        }
        self.subs.push(Sub {
            shard,
            slot,
            records_in: 0,
            watermark_ts: 0,
            newest_window_end: 0,
            records: o.counter(&names::SUBSCRIPTION_RECORDS_TOTAL, sub),
            watermark: o.gauge(&names::SUBSCRIPTION_WATERMARK_SECONDS, sub),
            roll_lag: o.gauge(&names::SUBSCRIPTION_ROLL_LAG_SECONDS, sub),
            sources: HashMap::default(),
            windows: Vec::new(),
            label,
        });
        self.index.insert(subscription.to_string(), self.subs.len() - 1);
        self.subs.len() - 1
    }

    /// Offer a batch on behalf of `subscription`. Blocks only while its
    /// shard's queue is full; errors once that shard's thread is gone.
    pub fn ingest(&mut self, subscription: &str, records: &[ConnSummary]) -> Result<()> {
        let at = self.resolve(subscription);
        self.offer(at, records)
    }

    fn offer(&mut self, at: usize, records: &[ConnSummary]) -> Result<()> {
        let trace = self.cfg.obs.trace_span("engine_ingest");
        let mut span = SpanGuard::traced(self.metrics.ingest_seconds.clone(), trace);
        if span.trace_enabled() {
            span.trace_attr("records", &records.len().to_string());
        }
        self.metrics.records_in.add(records.len() as u64);
        self.metrics.batches.inc();
        self.metrics.batch_records.record(records.len() as f64);
        let window_len = self.cfg.window_len;
        let sub = &mut self.subs[at];
        sub.records_in += records.len() as u64;
        for r in records {
            sub.watermark_ts = sub.watermark_ts.max(r.ts);
            if r.ts >= sub.newest_window_end {
                let window = bucket_start(r.ts, window_len);
                if sub.newest_window_end > 0 {
                    sub.roll_lag.set((r.ts - window) as f64);
                }
                sub.newest_window_end = window.saturating_add(window_len);
            }
        }
        if !records.is_empty() {
            sub.records.add(records.len() as u64);
            sub.watermark.set(sub.watermark_ts as f64);
            self.watermark = self.watermark.max(sub.watermark_ts);
        }
        self.metrics.watermark.set(self.watermark as f64);
        self.shards[sub.shard].stage(sub.slot, records)
    }

    /// Offer a flush batch with at-least-once delivery semantics: `source`
    /// names the producing agent (e.g. its IP) and `seq` its monotone batch
    /// sequence number. The first `(source, seq)` arrival is ingested like
    /// [`ShardedEngine::ingest`] and returns `Ok(true)`. A re-delivery (a
    /// duplicated packet, a crashed agent's replay) is discarded whole and
    /// returns `Ok(false)`, as is a `seq` more than 4096 behind the source's
    /// newest; both are counted, in records, by `outcome` on
    /// `commgraph_subscription_dedup_dropped_records_total`. Dedup is per
    /// subscription: sources in different subscriptions never collide.
    pub fn ingest_sequenced(
        &mut self,
        subscription: &str,
        source: &str,
        seq: u64,
        records: &[ConnSummary],
    ) -> Result<bool> {
        let at = self.resolve(subscription);
        let sub = &mut self.subs[at];
        let window = match sub.sources.get(source) {
            Some(&window) => window,
            None => {
                sub.windows.push(SeqWindow::new());
                sub.sources.insert(source.into(), sub.windows.len() - 1);
                debug_assert_eq!(sub.sources.len(), sub.windows.len());
                sub.windows.len() - 1
            }
        };
        let refusal = sub.windows[window].admit(seq);
        let Some(outcome) = refusal else { return self.offer(at, records).map(|()| true) };
        let labels = [sub.label.as_str(), outcome];
        self.cfg
            .obs
            .counter(&names::SUBSCRIPTION_DEDUP_DROPPED_RECORDS_TOTAL, labels)
            .add(records.len() as u64);
        Ok(false)
    }

    /// Subscriptions seen so far, across all shards.
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// Drain every shard and report per subscription.
    ///
    /// All channels close first, so the shards assemble the windows still
    /// open at the same time; every shard is then joined, and only after
    /// that does a dead one fail the call. Reports come back sorted by
    /// subscription id regardless of which shard held them, and the totals
    /// are order-independent sums. Late records are counted here, under
    /// `outcome="late"`.
    pub fn finish(mut self) -> Result<(Vec<SubscriptionReport>, ShardedStats)> {
        let mut tspan = self.cfg.obs.trace_span("engine_finish");
        self.shards.iter_mut().for_each(Shard::close);
        let joined: Vec<_> = self.shards.drain(..).map(Shard::join).collect();
        let outputs = joined.into_iter().enumerate().map(|(shard, output)| {
            output.map_err(|e| {
                let lost = self.index.iter().filter(|(_, &at)| self.subs[at].shard == shard);
                let lost: Vec<&str> = lost.map(|(name, _)| name.as_str()).collect();
                Error::WorkerFailed(format!("shard {shard}: {e}; lost subscriptions {lost:?}"))
            })
        });
        let mut outputs = outputs.collect::<Result<Vec<_>>>()?;
        let mut stats = ShardedStats {
            shards: outputs.len(),
            per_shard_subscriptions: self.resident,
            ..ShardedStats::default()
        };
        let mut reports = Vec::with_capacity(self.subs.len());
        for (subscription, at) in self.index {
            let sub = &self.subs[at];
            // A subscription that only ever offered empty batches never
            // reached its shard; its report is empty.
            let (graphs, mut run) =
                outputs[sub.shard].get_mut(sub.slot).map(std::mem::take).unwrap_or_default();
            let late = [sub.label.as_str(), "late"];
            self.cfg
                .obs
                .counter(&names::SUBSCRIPTION_DEDUP_DROPPED_RECORDS_TOTAL, late)
                .add(run.records_late);
            run.records_in = sub.records_in;
            stats.records_in += run.records_in;
            stats.records_kept += run.records_kept;
            stats.edge_entries += run.edge_entries;
            reports.push(SubscriptionReport { subscription, graphs, stats: run });
        }
        self.metrics.records_kept.add(stats.records_kept);
        self.metrics.dropped.add(stats.records_in.saturating_sub(stats.records_kept));
        // Built once per run; both sinks drop it when disabled.
        let summary = [
            ("subscriptions", reports.len().to_string()),
            ("records_in", stats.records_in.to_string()),
            ("records_kept", stats.records_kept.to_string()),
            ("edge_entries", stats.edge_entries.to_string()),
        ];
        summary.iter().for_each(|(k, v)| tspan.attr(k, v));
        self.cfg.obs.event(Level::Info, "engine", "finish", &summary);
        Ok((reports, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph_graph::{EdgeStats, NodeId};
    use flowlog::record::FlowKey;
    use obs::names::Family;

    fn records(seed: u8, n: u32) -> Vec<ConnSummary> {
        (0..n)
            .map(|i| ConnSummary {
                ts: (i as u64 % 120) * 60,
                key: FlowKey::tcp(
                    Ipv4Addr::new(10, seed, (i % 5) as u8, 1),
                    (40_000 + i % 900) as u16,
                    Ipv4Addr::new(10, seed, 9, (i % 7) as u8 + 1),
                    443,
                ),
                pkts_sent: 2,
                pkts_rcvd: 1,
                bytes_sent: 100 + i as u64,
                bytes_rcvd: 50,
            })
            .collect()
    }

    /// Per-window structural identity: window start, nodes, sorted edges.
    type Fingerprint = Vec<(u64, Vec<NodeId>, Vec<(u32, u32, EdgeStats, Vec<u16>)>)>;

    /// Full structural fingerprint: windows, nodes, and every edge's stats
    /// and service ports.
    fn fingerprint(graphs: &[CommGraph]) -> Fingerprint {
        graphs
            .iter()
            .map(|g| {
                let mut edges = Vec::new();
                for i in 0..g.node_count() as u32 {
                    for e in g.neighbors(i) {
                        if i <= e.node {
                            edges.push((i, e.node, e.stats, g.ports(i, e).to_vec()));
                        }
                    }
                }
                edges.sort_by_key(|&(i, j, ..)| (i, j));
                (g.window_start(), g.nodes().to_vec(), edges)
            })
            .collect()
    }

    /// One subscription through a one-shard engine configured by `cfg`, in
    /// batches of `chunk`: its stats.
    fn run(cfg: ShardedConfig, recs: &[ConnSummary], chunk: usize) -> EngineStats {
        let mut e = ShardedEngine::new(ShardedConfig { shards: 1, ..cfg }).unwrap();
        for batch in recs.chunks(chunk) {
            e.ingest("sub", batch).unwrap();
        }
        let (mut reports, _) = e.finish().unwrap();
        reports.pop().map(|r| r.stats).unwrap_or_default()
    }

    #[test]
    fn metrics_agree_with_returned_stats() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let recs = records(0, 300);
        let cfg = ShardedConfig { obs: Obs::new(registry.clone()), ..Default::default() };
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
        let base = records(0, 100);
        let mut recs = base.clone();
        recs.extend(base.iter().map(|r| r.mirrored()));
        let monitored: HashSet<Ipv4Addr> =
            recs.iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect();
        let cfg = ShardedConfig {
            monitored: Some(monitored),
            obs: Obs::new(registry.clone()),
            ..Default::default()
        };
        let stats = run(cfg, &recs, recs.len());
        assert_eq!(stats.records_kept, 100);
        let dropped = registry.counter(&names::ENGINE_DROPPED_RECORDS_TOTAL, []).get();
        assert_eq!(dropped, 100, "every mirrored duplicate counted as dropped");
    }

    #[test]
    fn shard_count_never_changes_per_subscription_output() {
        let subs: Vec<(String, Vec<ConnSummary>)> =
            (0..5u8).map(|s| (format!("sub-{s}"), records(s, 1500 + 100 * s as u32))).collect();

        // Reference: one one-shard engine per subscription.
        let mut reference = BTreeMap::new();
        for (name, recs) in &subs {
            let mut e =
                ShardedEngine::new(ShardedConfig { shards: 1, ..Default::default() }).unwrap();
            e.ingest(name, recs).unwrap();
            let (mut reports, _) = e.finish().unwrap();
            let report = reports.pop().expect("one subscription");
            reference.insert(name.clone(), (fingerprint(&report.graphs), report.stats));
        }

        for shards in [1, 2, 4] {
            let mut front =
                ShardedEngine::new(ShardedConfig { shards, ..Default::default() }).unwrap();
            // Interleave batches across subscriptions to exercise routing.
            let longest = subs.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
            for chunk_start in (0..longest).step_by(300) {
                for (name, recs) in &subs {
                    let end = (chunk_start + 300).min(recs.len());
                    if chunk_start < end {
                        front.ingest(name, &recs[chunk_start..end]).unwrap();
                    }
                }
            }
            assert_eq!(front.subscription_count(), subs.len());
            let (reports, merged) = front.finish().unwrap();

            // Deterministic order: sorted by subscription id.
            let names: Vec<&str> = reports.iter().map(|r| r.subscription.as_str()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted, "{shards} shards");

            assert_eq!(reports.len(), subs.len());
            for report in &reports {
                let (ref_fp, ref_stats) = &reference[&report.subscription];
                assert_eq!(
                    &fingerprint(&report.graphs),
                    ref_fp,
                    "{} at {shards} shards",
                    report.subscription
                );
                assert_eq!(report.stats.records_in, ref_stats.records_in);
                assert_eq!(report.stats.records_kept, ref_stats.records_kept);
                assert_eq!(report.stats.edge_entries, ref_stats.edge_entries);
            }

            assert_eq!(merged.shards, shards);
            assert_eq!(
                merged.records_in,
                reference.values().map(|(_, s)| s.records_in).sum::<u64>()
            );
            assert_eq!(
                merged.edge_entries,
                reference.values().map(|(_, s)| s.edge_entries).sum::<usize>()
            );
            assert_eq!(merged.per_shard_subscriptions.len(), shards);
            assert_eq!(merged.per_shard_subscriptions.iter().sum::<usize>(), subs.len());
        }
    }

    #[test]
    fn subscriptions_are_isolated() {
        let mut front = ShardedEngine::new(ShardedConfig::default()).unwrap();
        front.ingest("tenant-a", &records(1, 400)).unwrap();
        front.ingest("tenant-b", &records(2, 700)).unwrap();
        let (reports, _) = front.finish().unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].subscription, "tenant-a");
        assert_eq!(reports[0].stats.records_in, 400);
        assert_eq!(reports[1].stats.records_in, 700);
        // No address leaks across subscriptions: the 10.1/10.2 prefixes
        // stay in their own graphs.
        for (report, octet) in reports.iter().zip([1u8, 2u8]) {
            for g in &report.graphs {
                for node in g.nodes() {
                    if let NodeId::Ip(ip) = node {
                        assert_eq!(ip.octets()[1], octet, "{}", report.subscription);
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_batches_accumulate_in_one_engine() {
        let mut front = ShardedEngine::new(ShardedConfig::default()).unwrap();
        let recs = records(3, 600);
        for chunk in recs.chunks(100) {
            front.ingest("sub", chunk).unwrap();
        }
        assert_eq!(front.subscription_count(), 1);
        let (reports, merged) = front.finish().unwrap();
        assert_eq!(reports[0].stats.records_in, 600);
        assert_eq!(merged.records_in, 600);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ShardedEngine::new(ShardedConfig { shards: 0, ..Default::default() }).is_err());
        let bad_window = ShardedConfig { window_len: 0, ..Default::default() };
        assert!(ShardedEngine::new(bad_window).is_err());
    }

    #[test]
    fn per_subscription_telemetry_tracks_records_watermark_and_roll_lag() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let cfg = ShardedConfig { obs: Obs::new(registry.clone()), ..Default::default() };
        let window_len = cfg.window_len;
        let mut front = ShardedEngine::new(cfg).unwrap();
        // Two windows for tenant-a; the second opens 25 s late.
        let mut recs = records(1, 40);
        for r in recs.iter_mut().skip(20) {
            r.ts = window_len + 25 + (r.ts % 30);
        }
        front.ingest("tenant-a", &recs[..20]).unwrap();
        front.ingest("tenant-a", &recs[20..]).unwrap();
        front.ingest("tenant-b", &records(2, 10)).unwrap();

        let sub = |name: &str, metric: &Family<Gauge, 1>| registry.gauge(metric, [name]).get();
        assert_eq!(registry.counter(&names::SUBSCRIPTION_RECORDS_TOTAL, ["tenant-a"]).get(), 40);
        assert_eq!(
            sub("tenant-a", &names::SUBSCRIPTION_WATERMARK_SECONDS),
            recs.iter().map(|r| r.ts).max().unwrap() as f64
        );
        assert_eq!(sub("tenant-a", &names::SUBSCRIPTION_ROLL_LAG_SECONDS), 25.0);
        // Shard residency gauges cover both tenants, one on each shard.
        let resident: f64 = registry
            .snapshot()
            .iter()
            .filter(|m| m.name == names::SHARD_SUBSCRIPTION_ENTRIES.name)
            .map(|m| match m.value {
                obs::SnapshotValue::Gauge(v) => v,
                _ => 0.0,
            })
            .sum();
        assert_eq!(resident, 2.0);
        front.finish().unwrap();
    }

    #[test]
    fn cardinality_cap_routes_overflow_and_conserves_totals() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let cfg = ShardedConfig { obs: Obs::new(registry.clone()), ..Default::default() };
        let mut front = ShardedEngine::new(cfg).unwrap();
        let tenants = LABEL_CAP + 2;
        let mut expected_total = 0u64;
        for i in 0..tenants {
            let n = 100 + i as u32;
            front.ingest(&format!("sub-{i:02}"), &records(i as u8, n)).unwrap();
            expected_total += n as u64;
        }
        let snapshot = registry.snapshot();
        let label_values: Vec<String> = snapshot
            .iter()
            .filter(|m| m.name == names::SUBSCRIPTION_RECORDS_TOTAL.name)
            .filter_map(|m| m.labels.iter().find(|(k, _)| k == "subscription"))
            .map(|(_, v)| v.clone())
            .collect();
        let admitted = (0..LABEL_CAP).map(|i| format!("sub-{i:02}"));
        assert_eq!(
            label_values,
            std::iter::once("overflow".to_string()).chain(admitted).collect::<Vec<_>>(),
            "{LABEL_CAP} admitted + one shared overflow bucket"
        );
        let capped_sum: u64 = snapshot
            .iter()
            .filter(|m| m.name == names::SUBSCRIPTION_RECORDS_TOTAL.name)
            .map(|m| match m.value {
                obs::SnapshotValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(capped_sum, expected_total, "overflow bucket conserves record totals");
        let routed = registry.counter(&names::OBS_LABEL_OVERFLOW_TOTAL, ["subscription"]).get();
        assert_eq!(routed, 2, "sub-64 and sub-65 each routed once at first contact");
        // The cap changes labels only, never the analytics output.
        let (reports, merged) = front.finish().unwrap();
        assert_eq!(reports.len(), tenants);
        assert_eq!(merged.records_in, expected_total);
    }

    #[test]
    fn sequenced_ingest_discards_redelivered_batches() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let cfg = ShardedConfig { obs: Obs::new(registry.clone()), ..Default::default() };
        let mut front = ShardedEngine::new(cfg).unwrap();
        let recs = records(1, 60);
        assert!(front.ingest_sequenced("tenant-a", "10.1.0.1", 0, &recs[..30]).unwrap());
        assert!(front.ingest_sequenced("tenant-a", "10.1.0.1", 1, &recs[30..]).unwrap());
        // Replay of flush 1 (crash + replay, or a duplicated packet).
        assert!(!front.ingest_sequenced("tenant-a", "10.1.0.1", 1, &recs[30..]).unwrap());
        // Same (source, seq) under another subscription is independent.
        assert!(front.ingest_sequenced("tenant-b", "10.1.0.1", 1, &records(2, 10)).unwrap());
        let dropped = registry
            .counter(&names::SUBSCRIPTION_DEDUP_DROPPED_RECORDS_TOTAL, ["tenant-a", "duplicate"])
            .get();
        assert_eq!(dropped, 30, "the whole replayed batch is counted, in records");
        let (reports, _) = front.finish().unwrap();
        assert_eq!(reports[0].stats.records_in, 60, "replay never reaches the engine");
    }

    /// The bounded window agrees with an unbounded seen-set on any stream
    /// whose reordering stays inside the window, and refuses as `Late`
    /// exactly what has fallen out of it.
    #[test]
    fn seq_window_matches_an_unbounded_set_inside_the_reorder_window() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(15);
        let mut next = || rng.random_range(0..u64::MAX);
        let (mut window, mut seen) = (SeqWindow::new(), std::collections::BTreeSet::new());
        let mut head = 0u64;
        for _ in 0..200_000 {
            // Mostly near the head (reordered or re-delivered), sometimes a
            // jump ahead (up to past a whole window), sometimes far behind.
            let seq = match next() % 16 {
                0 => head + next() % (2 * REORDER_WINDOW),
                1 => head.saturating_sub(REORDER_WINDOW + next() % 100),
                _ => head.saturating_sub(next() % 64) + next() % 4,
            };
            let high = seen.last().copied();
            let expect = match high {
                Some(high) if seq <= high && high - seq >= REORDER_WINDOW => Some("late"),
                _ if seen.contains(&seq) => Some("duplicate"),
                _ => None,
            };
            assert_eq!(window.admit(seq), expect, "seq {seq} with high-water {high:?}");
            if expect.is_none() {
                seen.insert(seq);
            }
            head = head.max(seq);
        }
        // The ends of the number line.
        let mut edge = SeqWindow::new();
        assert_eq!(edge.admit(u64::MAX), None);
        assert_eq!(edge.admit(u64::MAX), Some("duplicate"));
        assert_eq!(edge.admit(0), Some("late"));
    }

    #[test]
    fn a_million_in_order_deliveries_leave_the_dedup_state_constant() {
        let mut front = ShardedEngine::new(ShardedConfig::default()).unwrap();
        for seq in 0..1_000_000u64 {
            assert!(front.ingest_sequenced("tenant-a", "10.1.0.1", seq, &[]).unwrap());
        }
        assert!(!front.ingest_sequenced("tenant-a", "10.1.0.1", 999_999, &[]).unwrap());
        assert!(!front.ingest_sequenced("tenant-a", "10.1.0.1", 7, &[]).unwrap(), "late");
        assert_eq!(front.subs.len(), 1);
        let sub = &front.subs[0];
        assert_eq!((sub.sources.len(), sub.windows.len()), (1, 1), "one window per source");
        assert!(std::mem::size_of::<SeqWindow>() <= 528);
        front.finish().unwrap();
    }

    /// A thousand sources whose names prefix one another (`10.0.0.1`,
    /// `10.0.0.10`, `10.0.0.100`, …) each get their own window.
    #[test]
    fn sources_sharing_prefixes_are_deduped_independently() {
        let mut front = ShardedEngine::new(ShardedConfig::default()).unwrap();
        let names: Vec<String> = (1..=1000).map(|i| format!("10.0.0.{i}")).collect();
        let mut offer =
            |i: usize, seq: u64| front.ingest_sequenced("tenant-a", &names[i], seq, &[]).unwrap();
        assert!((0..1000).all(|i| offer(i, i as u64)), "first arrivals");
        assert!((0..1000).all(|i| !offer(i, i as u64)), "re-deliveries");
        // Only the even sources move on; the odd ones have never seen i + 1.
        assert!((0..1000).step_by(2).all(|i| offer(i, i as u64 + 1)));
        let fresh: Vec<bool> = (0..1000).map(|i| offer(i, i as u64 + 1)).collect();
        assert_eq!(fresh, (0..1000).map(|i| i % 2 == 1).collect::<Vec<_>>());
        let sub = &front.subs[0];
        assert_eq!((sub.sources.len(), sub.windows.len()), (1000, 1000));
        front.finish().unwrap();
    }

    /// The `jittered_delivery` network (latency 0–3 ticks, 5 % duplicated,
    /// 2 % dropped): the front door refuses exactly the re-deliveries.
    #[test]
    fn jittered_network_refusals_equal_redeliveries() {
        use cloudsim::net::{NetConfig, NetSim};
        let registry = std::sync::Arc::new(obs::Registry::new());
        let cfg = ShardedConfig { obs: Obs::new(registry.clone()), ..Default::default() };
        let mut front = ShardedEngine::new(cfg).unwrap();
        let net_cfg = NetConfig {
            seed: 11,
            latency_ticks: (0, 3),
            duplicate_rate: 0.05,
            drop_rate: 0.02,
            ..NetConfig::default()
        };
        let mut net = NetSim::new(net_cfg, Default::default()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        let (mut redelivered, mut refused, mut refused_records) = (0u64, 0u64, 0u64);
        let mut sink = |d: &cloudsim::net::Delivery| {
            redelivered += u64::from(!seen.insert((d.source, d.seq)));
            if !front
                .ingest_sequenced("tenant-a", &d.source.to_string(), d.seq, &d.records)
                .unwrap()
            {
                refused += 1;
                refused_records += d.records.len() as u64;
            }
        };
        let recs = records(1, 20_000);
        for offer in recs.chunks(64) {
            net.offer(offer);
            net.step(&mut sink);
        }
        net.drain(&mut sink);
        assert!(redelivered > 0 && net.stats().reordered_packets > 0, "the network misbehaved");
        assert_eq!(refused, redelivered);
        let counted = |outcome: &str| {
            registry
                .counter(&names::SUBSCRIPTION_DEDUP_DROPPED_RECORDS_TOTAL, ["tenant-a", outcome])
                .get()
        };
        assert_eq!(counted("duplicate"), refused_records);
        assert_eq!(counted("late"), 0);
        front.finish().unwrap();
    }

    #[test]
    fn empty_batches_register_the_subscription_and_nothing_else() {
        let mut front = ShardedEngine::new(ShardedConfig::default()).unwrap();
        front.ingest("sub", &[]).unwrap();
        assert_eq!(front.subscription_count(), 1);
        assert_eq!(front.shards.len(), 2, "the pool is fixed at construction");
        let (reports, merged) = front.finish().unwrap();
        assert_eq!(merged.shards, 2);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].graphs.is_empty());
        assert_eq!(reports[0].stats.records_in, 0);
    }

    /// Eight equal subscriptions fill the shards evenly, and the order of
    /// first contact decides which shard each lands on: the per-shard edge
    /// gauges follow the order, the reports never do.
    #[test]
    fn placement_balances_by_first_contact_and_never_changes_reports() {
        let names: Vec<String> = (0..8).map(|s| format!("sub-{s}")).collect();
        let run = |shards: usize, order: &[usize]| {
            let registry = std::sync::Arc::new(obs::Registry::new());
            let obs = Obs::new(registry.clone());
            let mut front =
                ShardedEngine::new(ShardedConfig { shards, obs, ..Default::default() }).unwrap();
            // Subscription s carries 100 + 50·s records, so its edge count
            // says where it was placed.
            for &s in order {
                front.ingest(&names[s], &records(s as u8, 100 + 50 * s as u32)).unwrap();
            }
            let (reports, stats) = front.finish().unwrap();
            let gauge = |shard: usize| {
                registry.gauge(&names::ENGINE_SHARD_EDGE_ENTRIES, [&shard.to_string()]).get()
                    as usize
            };
            let per_shard: Vec<usize> = (0..shards).map(gauge).collect();
            let fps: Vec<_> =
                reports.iter().map(|r| (r.subscription.clone(), fingerprint(&r.graphs))).collect();
            let edges: Vec<usize> = reports.iter().map(|r| r.stats.edge_entries).collect();
            (fps, edges, stats.per_shard_subscriptions, per_shard)
        };
        let forward: Vec<usize> = (0..8).collect();
        let backward: Vec<usize> = (0..8).rev().collect();
        let (alone, edges, _, _) = run(1, &forward);
        let on = |shards: usize, order: &[usize], shard: usize| -> usize {
            order.iter().skip(shard).step_by(shards).map(|&s| edges[s]).sum()
        };
        for (shards, balance) in [(2, vec![4, 4]), (3, vec![3, 3, 2])] {
            for order in [&forward, &backward] {
                let (fps, _, resident, per_shard) = run(shards, order);
                assert_eq!(resident, balance, "{shards} shards");
                let placed: Vec<usize> = (0..shards).map(|k| on(shards, order, k)).collect();
                assert_eq!(per_shard, placed, "contact k lands on shard k mod {shards}");
                assert_eq!(fps, alone, "placement never changes a report");
            }
        }
    }

    /// An engine whose shard 0 dies on its first batch.
    fn front_with_a_dying_shard(registry: &std::sync::Arc<obs::Registry>) -> ShardedEngine {
        let cfg = ShardedConfig { obs: Obs::new(registry.clone()), ..Default::default() };
        let dying = Shard::spawn_with(0, |rx| {
            let _ = rx.recv();
            panic!("injected shard failure");
        });
        let healthy = Shard::spawn(1, &cfg);
        ShardedEngine::with_shards(cfg, vec![dying.unwrap(), healthy.unwrap()])
    }

    #[test]
    fn a_dead_shard_fails_finish_after_the_others_are_joined() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut front = front_with_a_dying_shard(&registry);
        // First contact places `doomed` on shard 0 and `fine` on shard 1.
        let (doomed, fine) = ("sub-doomed", "sub-fine");
        front.ingest(doomed, &records(1, 100)).unwrap();
        front.ingest(fine, &records(2, 100)).unwrap();
        let err = front.finish().expect_err("a dead shard fails finish");
        let Error::WorkerFailed(message) = err else { panic!("wrong error: {err:?}") };
        assert!(message.contains("shard 0") && message.contains(doomed), "{message}");
        assert!(!message.contains(fine), "only the dead shard's subscriptions are lost");
        // The healthy shard ran to completion and was joined: the gauge it
        // sets as its last act is in the registry when `finish` returns.
        let held = registry.gauge(&names::ENGINE_SHARD_EDGE_ENTRIES, ["1"]).get();
        assert!(held > 0.0, "shard 1 assembled its subscription's graphs");
    }

    #[test]
    fn ingest_after_shard_death_errors_instead_of_blocking() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut front = front_with_a_dying_shard(&registry);
        let depth = crate::shard::QUEUE_DEPTH;
        // First contact places `doomed` on shard 0 and `fine` on shard 1.
        let (doomed, fine) = ("sub-doomed", "sub-fine");
        let batch = records(1, 4096);
        // Every call hands one batch over. The dead thread drains nothing,
        // so at most `depth` more fit its queue; a hand-over that finds the
        // queue full is woken by the disconnect. An error must surface
        // within `depth + 2` calls, and none may hang.
        let failed = (0..depth + 2).find_map(|_| front.ingest(doomed, &batch).err());
        assert!(matches!(failed, Some(Error::WorkerFailed(_))), "{failed:?}");
        assert!(front.ingest(doomed, &batch).is_err(), "and it stays failed");
        front.ingest(fine, &batch).expect("the other shard is unaffected");
        assert!(front.finish().is_err());
    }

    #[test]
    fn empty_front_door_finishes_clean() {
        let front = ShardedEngine::new(ShardedConfig::default()).unwrap();
        let (reports, merged) = front.finish().unwrap();
        assert!(reports.is_empty());
        assert_eq!(merged.records_in, 0);
        assert_eq!(merged.per_shard_subscriptions, vec![0, 0]);
    }
}
