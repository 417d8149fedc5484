//! Per-layer replays: every layer's public functions, timed from outside
//! on the inputs a workload captured. The same replays run on every
//! workload, so each metric exists everywhere and a change to one layer can
//! be read on the workloads that should — and should not — move.
//!
//! A stage that cannot run on a capture (no second window to diff, a graph
//! too large to decompose in a benchmark run, a generator the workload never
//! used) reports 0 from 0 samples. A replayed call that returns `Err` is one
//! failed operation of the run, like a failed call inside a pass.

use crate::stats::{median, proc_status, quantile, rss_mb};
use crate::trace::Recorder;
use crate::workloads::{monitor_span, Capture, Delivery};
use algos::jaccard::jaccard_matrix_of_sets_with;
use algos::metrics::adjusted_rand_index;
use algos::roles::{
    directional_neighbor_sets, infer_roles_incremental_obs, infer_roles_with, RoleMemo,
    SegmentationMethod,
};
use analytics::{ShardedConfig, ShardedEngine};
use commgraph::monitor::{MonitorConfig, SecurityMonitor};
use commgraph::pipeline::{Pipeline, PipelineConfig, PipelineOutput, WindowAnalyzer};
use commgraph::Workbench;
use commgraph_graph::collapse::collapse_default;
use commgraph_graph::diff::dirty_nodes;
use commgraph_graph::{CommGraph, Facet, GraphBuilder, NodeId};
use flowlog::codec::{decode_binary, encode_binary};
use flowlog::nic::{Direction, HostAgent};
use flowlog::record::ConnSummary;
use linalg::pca::pca_sweep_with;
use linalg::{eigen_symmetric_with, Matrix, Parallelism};
use obs::{AlertEngine, Obs, Registry, Scraper, Tsdb, TsdbConfig};
use segment::compile::{compile, PAPER_VM_RULE_LIMIT};
use segment::{SegmentPolicy, Segmentation, ViolationDetector};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// One per-layer measurement.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name, as in `spec::PER_LAYER`.
    pub name: &'static str,
    /// The measurement.
    pub value: f64,
    /// Samples (calls, windows) it summarises.
    pub n: usize,
}

/// Largest matrix the `linalg` replay decomposes; larger byte matrices are
/// cut to their leading principal block (full-spectrum Jacobi is cubic).
const EIGEN_CAP: usize = 320;
/// Largest graph the `algos`/`segment`/monitor replays cluster.
const CLUSTER_CAP: usize = 2_000;

/// What the replays produced.
#[derive(Debug, Default)]
pub struct Replayed {
    /// One value per per-layer metric the replays measure.
    pub values: Vec<Value>,
    /// Fallible replayed calls made.
    pub attempted: u64,
    /// Those that returned `Err`.
    pub failed: u64,
}

impl Replayed {
    /// A value that is not finite stays as it is, so the run reads incorrect.
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        // `+ 0.0` folds the `-0.0` an empty `f64` sum starts from.
        self.values.push(Value { name, value: value + 0.0, n });
    }

    /// Count one fallible replayed call; an `Err` is a failed operation.
    fn ok<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("benchmark: replay of {what} failed: {e:?}");
        })
        .ok()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn pipeline_cfg(c: &Capture<'_>, o: Obs) -> PipelineConfig {
    PipelineConfig {
        window_len: c.window_len,
        monitored: c.vantage_dedup.then(|| c.monitored.clone()),
        obs: o,
        ..PipelineConfig::default()
    }
}

/// Run every stage over `c`, recording spans on `rec` (pass 0).
pub fn replay(c: &Capture<'_>, rec: &mut Recorder) -> Replayed {
    rec.set_pass(0);
    let mut out = Replayed::default();
    let records: u64 = c.windows.iter().map(|w| w.len() as u64).sum();

    flowlog_stage(c, rec, &mut out);
    let piped = pipeline_stage(c, rec, &mut out, records);
    let graphs = graph_stage(c, rec, &mut out, records);
    let carried = cluster_stage(c, rec, &mut out, &graphs);
    analyze_stage(c, rec, &mut out, piped.as_ref(), carried);
    monitor_stage(c, rec, &mut out, &graphs);
    analytics_stage(c, rec, &mut out);
    linalg_stage(c, rec, &mut out);
    obs_stage(c, rec, &mut out);
    cloudsim_stage(c, &mut out);
    out
}

fn flowlog_stage(c: &Capture<'_>, rec: &mut Recorder, out: &mut Replayed) {
    let frames: Vec<Vec<u8>> = c
        .windows
        .iter()
        .flat_map(|w| w.chunks(4096))
        .map(|chunk| encode_binary(chunk).to_vec())
        .collect();
    let mut failed = 0usize;
    for f in &frames {
        let decoded = rec.time("flowlog.decode", || decode_binary(f.as_slice()));
        failed += usize::from(black_box(out.ok("decode_binary", decoded)).is_none());
    }
    let busy = rec.busy_ms("flowlog.decode");
    let mb = frames.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    out.put("flowlog.decode_busy_ms", busy, frames.len());
    out.put("flowlog.decode_mb_per_s", ratio(mb, busy / 1e3), frames.len());
    out.put("flowlog.decode_failed", failed as f64, frames.len());

    // The NIC path is on no workload today: two observations per record of
    // the capture's first minute, then one poll.
    let first = c.windows.first().copied().unwrap_or(&[]);
    let t_end = first.first().map_or(0, |r| r.ts) + 60;
    let minute: Vec<&ConnSummary> = first.iter().filter(|r| r.ts < t_end).take(50_000).collect();
    let mut agent = HostAgent::new(1 << 16, 60, 120);
    let t0 = Instant::now();
    for r in &minute {
        agent.observe(r.ts, r.key, Direction::Tx, r.pkts_sent, r.bytes_sent);
        agent.observe(r.ts, r.key, Direction::Rx, r.pkts_rcvd, r.bytes_rcvd);
    }
    black_box(agent.poll(t_end));
    let d = t0.elapsed();
    rec.push("flowlog.nic", t0, d, None);
    out.put(
        "flowlog.nic_observe_ns",
        ratio(d.as_nanos() as f64, 2.0 * minute.len() as f64),
        2 * minute.len(),
    );
}

/// `Pipeline::ingest`/`finish` over the capture in 4096-record batches.
fn run_pipeline(
    c: &Capture<'_>,
    o: Obs,
    mut span: impl FnMut(&'static str, Instant),
) -> commgraph_graph::Result<PipelineOutput> {
    let mut p = Pipeline::new(pipeline_cfg(c, o));
    for chunk in c.windows.iter().flat_map(|w| w.chunks(4096)) {
        let t = Instant::now();
        p.ingest(chunk);
        span("core.pipeline_ingest", t);
    }
    let t = Instant::now();
    let finished = p.finish();
    span("core.pipeline_finish", t);
    finished
}

fn pipeline_stage(
    c: &Capture<'_>,
    rec: &mut Recorder,
    out: &mut Replayed,
    records: u64,
) -> Option<PipelineOutput> {
    let piped = run_pipeline(c, Obs::noop(), |name, t| {
        rec.push(name, t, t.elapsed(), None);
    });
    let piped = out.ok("Pipeline::finish", piped);
    let ingest = rec.busy_ms("core.pipeline_ingest");
    let calls = rec.durations_ms("core.pipeline_ingest").len();
    out.put("core.pipeline_ingest_busy_ms", ingest, calls);
    out.put("core.pipeline_ingest_ns_per_record", ratio(ingest * 1e6, records as f64), calls);
    out.put("core.pipeline_finish_ms", rec.busy_ms("core.pipeline_finish"), 1);
    let in_graphs: u64 =
        piped.as_ref().map_or(0, |o| o.sequence.graphs().iter().map(|g| g.totals().conns).sum());
    out.put("core.records_in", piped.as_ref().map_or(0, |o| o.total_records) as f64, 1);
    out.put("core.records_in_graphs", in_graphs as f64, 1);
    piped
}

fn graph_stage(
    c: &Capture<'_>,
    rec: &mut Recorder,
    out: &mut Replayed,
    records: u64,
) -> Vec<CommGraph> {
    let mut graphs: Vec<CommGraph> = Vec::with_capacity(c.windows.len());
    let mut fractions = Vec::new();
    let mut dirty_sizes = Vec::new();
    for w in &c.windows {
        let start = w.first().map_or(0, |r| r.ts - r.ts % c.window_len);
        let g = rec.time("graph.build", || {
            let mut b = GraphBuilder::new(Facet::Ip, start, c.window_len);
            if c.vantage_dedup {
                b = b.with_monitored(c.monitored.clone());
            }
            b.add_all(*w);
            b.finish()
        });
        let collapsed = rec.time("graph.collapse", || collapse_default(&g));
        fractions.push(1.0 - ratio(collapsed.node_count() as f64, g.node_count() as f64));
        if let Some(prev) = graphs.last() {
            let dirty = rec.time("graph.diff", || dirty_nodes(prev, &g));
            dirty_sizes.push(dirty.len() as f64);
        }
        graphs.push(g);
    }
    let n = graphs.len();
    let build = rec.busy_ms("graph.build");
    let nodes: Vec<f64> = graphs.iter().map(|g| g.node_count() as f64).collect();
    let edges: Vec<f64> = graphs.iter().map(|g| g.edge_count() as f64).collect();
    out.put("graph.build_busy_ms", build, n);
    out.put("graph.build_ns_per_record", ratio(build * 1e6, records as f64), n);
    out.put("graph.nodes_p50", median(&nodes), n);
    out.put("graph.edges_p50", median(&edges), n);
    out.put("graph.collapse_busy_ms", rec.busy_ms("graph.collapse"), n);
    out.put("graph.collapse_fraction", ratio(fractions.iter().sum(), n as f64), n);
    out.put("graph.diff_busy_ms", rec.busy_ms("graph.diff"), dirty_sizes.len());
    out.put("graph.dirty_nodes_p50", median(&dirty_sizes), dirty_sizes.len());
    out.put("graph.dirty_nodes_p90", quantile(&dirty_sizes, 0.9), dirty_sizes.len());
    graphs
}

/// `algos` and `segment` on every window graph; returns the time the
/// incremental chain took (what `WindowAnalyzer::analyze` spends below
/// itself).
fn cluster_stage(
    c: &Capture<'_>,
    rec: &mut Recorder,
    out: &mut Replayed,
    graphs: &[CommGraph],
) -> f64 {
    let par = Parallelism::default();
    let method = SegmentationMethod::paper_default();
    let small: Vec<(usize, &CommGraph)> =
        graphs.iter().enumerate().filter(|(_, g)| g.node_count() <= CLUSTER_CAP).collect();
    let mut pairs = 0.0;
    let mut n_roles = Vec::new();
    let mut ari = Vec::new();
    let mut rules = Vec::new();
    let mut vm_rules_max = 0usize;
    let mut memo: Option<RoleMemo> = None;
    let mut prev: Option<(Segmentation, SegmentPolicy)> = None;
    let mut first: Option<(Segmentation, SegmentPolicy)> = None;
    let mut learned_records = 0u64;
    for &(i, g) in &small {
        let records = c.windows[i];
        let n = g.node_count() as f64;
        pairs += n * (n - 1.0) / 2.0;
        rec.time("algos.similarity", || {
            black_box(jaccard_matrix_of_sets_with(&directional_neighbor_sets(g), par));
        });
        rec.time("algos.infer_roles", || black_box(infer_roles_with(g, &method, par)));
        rec.time("algos.infer_roles_serial", || {
            black_box(infer_roles_with(g, &method, Parallelism::serial()))
        });
        // The incremental chain, exactly as `WindowAnalyzer` drives it.
        let all: Vec<NodeId>;
        let dirty: Vec<NodeId> = match i.checked_sub(1).and_then(|p| graphs.get(p)) {
            Some(before) if memo.is_some() => dirty_nodes(before, g),
            _ => {
                all = g.nodes().to_vec();
                all
            }
        };
        let (roles, next) = rec.time("algos.infer_roles_incremental", || {
            infer_roles_incremental_obs(g, &dirty, memo.as_ref(), 0.1, par, &Obs::noop())
        });
        memo = Some(next);
        n_roles.push(roles.n_roles as f64);
        let (pred, truth): (Vec<usize>, Vec<usize>) = g
            .nodes()
            .iter()
            .zip(&roles.labels)
            .filter_map(|(n, l)| Some((*l, *c.truth.get(&n.ip()?)?)))
            .unzip();
        ari.extend(out.ok("adjusted_rand_index", adjusted_rand_index(&pred, &truth)));

        let seg = rec.time("segment.from_inference", || {
            Segmentation::from_inference(g, &roles, |ip| c.monitored.contains(&ip))
        });
        let Some(seg) = out.ok("Segmentation::from_inference", seg) else {
            continue;
        };
        let policy = rec.time("segment.learn", || SegmentPolicy::learn(records, &seg, true));
        learned_records += records.len() as u64;
        let incremental = rec.time("segment.learn_incremental", || match &prev {
            Some((pseg, ppol)) => {
                let dirty_ips: HashSet<Ipv4Addr> = dirty.iter().filter_map(|n| n.ip()).collect();
                SegmentPolicy::learn_incremental(records, &seg, pseg, ppol, &dirty_ips, true)
            }
            None => SegmentPolicy::learn(records, &seg, true),
        });
        rules.push(policy.rule_count() as f64);
        let report = rec.time("segment.compile", || compile(&seg, &policy, PAPER_VM_RULE_LIMIT));
        vm_rules_max = vm_rules_max.max(report.max_ip_rules);
        first.get_or_insert_with(|| (seg.clone(), policy));
        prev = Some((seg, incremental));
    }
    // The read side: later windows checked against the first window's policy.
    let mut violations = 0usize;
    let mut checked = 0u64;
    if let Some((seg, policy)) = first {
        for (i, w) in c.windows.iter().enumerate().skip(1) {
            let mut det = ViolationDetector::new(seg.clone(), policy.clone());
            let found = rec.time("segment.check", || det.check_all(*w).len());
            checked += w.len() as u64;
            if i == c.check_window {
                violations = found;
            }
        }
    }

    let n = small.len();
    let p50 = |rec: &Recorder, name| median(&rec.durations_ms(name));
    out.put("algos.similarity_ms_p50", p50(rec, "algos.similarity"), n);
    out.put("algos.scored_pairs", pairs, n);
    out.put("algos.infer_roles_ms_p50", p50(rec, "algos.infer_roles"), n);
    out.put("algos.infer_roles_incremental_ms_p50", p50(rec, "algos.infer_roles_incremental"), n);
    out.put("algos.n_roles_p50", median(&n_roles), n);
    out.put("algos.ari_vs_truth", ratio(ari.iter().sum(), ari.len() as f64), ari.len());
    out.put(
        "algos.par_speedup",
        ratio(rec.busy_ms("algos.infer_roles_serial"), rec.busy_ms("algos.infer_roles")),
        n,
    );
    out.put("segment.from_inference_ms_p50", p50(rec, "segment.from_inference"), n);
    out.put("segment.learn_ms_p50", p50(rec, "segment.learn"), n);
    out.put(
        "segment.learn_ns_per_record",
        ratio(rec.busy_ms("segment.learn") * 1e6, learned_records as f64),
        n,
    );
    out.put("segment.learn_incremental_ms_p50", p50(rec, "segment.learn_incremental"), n);
    out.put("segment.rules_p50", median(&rules), n);
    out.put("segment.compile_ms_p50", p50(rec, "segment.compile"), n);
    out.put("segment.vm_rules_max", vm_rules_max as f64, n);
    let checks = rec.durations_ms("segment.check").len();
    out.put(
        "segment.check_ns_per_record",
        ratio(rec.busy_ms("segment.check") * 1e6, checked as f64),
        checks,
    );
    out.put("segment.violations", violations as f64, checks.min(1));
    rec.busy_ms("algos.infer_roles_incremental")
        + rec.busy_ms("segment.from_inference")
        + rec.busy_ms("segment.learn_incremental")
}

fn analyze_stage(
    c: &Capture<'_>,
    rec: &mut Recorder,
    out: &mut Replayed,
    piped: Option<&PipelineOutput>,
    carried_ms: f64,
) {
    let mut analyzer = WindowAnalyzer::new(c.monitored.clone(), true);
    let graphs = piped.map_or(&[][..], |p| p.sequence.graphs());
    let mut n = 0;
    for (i, g) in graphs.iter().enumerate().filter(|(_, g)| g.node_count() <= CLUSTER_CAP) {
        let (Some(dirty), Some(records)) =
            (piped.and_then(|p| p.dirty_sets.get(i)), c.windows.get(i))
        else {
            continue;
        };
        let analysis = rec.time("core.analyze", || analyzer.analyze(g, dirty, records));
        black_box(out.ok("WindowAnalyzer::analyze", analysis));
        n += 1;
    }
    let busy = rec.busy_ms("core.analyze");
    out.put("core.analyze_busy_ms", busy, n);
    out.put("core.analyze_self_ms", (busy - carried_ms).max(0.0), n);
}

fn monitor_stage(c: &Capture<'_>, rec: &mut Recorder, out: &mut Replayed, graphs: &[CommGraph]) {
    // The baseline fits a full-spectrum model on the first window's
    // collapsed graph; skip captures where that alone would take minutes.
    let fits = graphs.first().is_some_and(|g| collapse_default(g).node_count() <= EIGEN_CAP);
    let learn_windows = 4.min(c.windows.len().saturating_sub(1));
    if fits && learn_windows >= 2 {
        let cfg = MonitorConfig {
            window_len: c.window_len,
            learn_windows,
            anomaly_k: 10,
            ..MonitorConfig::default()
        };
        let mut monitor = SecurityMonitor::new(cfg, c.monitored.clone());
        for batch in c.windows.iter().flat_map(|w| w.chunks(w.len().div_ceil(5).max(1))) {
            let t = Instant::now();
            let events = monitor.ingest(batch);
            let d = t.elapsed();
            rec.push(monitor_span(&events), t, d, None);
            black_box(events);
        }
        black_box(monitor.flush());
    }
    let ingests = rec.durations_ms("core.monitor_ingest").len();
    let closes = rec.durations_ms("core.monitor_close");
    out.put("core.monitor_ingest_busy_ms", rec.busy_ms("core.monitor_ingest"), ingests);
    out.put(
        "core.monitor_baseline_ms",
        rec.busy_ms("core.monitor_baseline"),
        rec.durations_ms("core.monitor_baseline").len(),
    );
    out.put("core.monitor_close_ms_p50", median(&closes), closes.len());
}

fn analytics_stage(c: &Capture<'_>, rec: &mut Recorder, out: &mut Replayed) {
    let chunked: Vec<Delivery>;
    let deliveries: &[Delivery] = match c.deliveries {
        Some(d) => d,
        None => {
            chunked = c
                .windows
                .iter()
                .flat_map(|w| w.chunks(4096))
                .enumerate()
                .map(|(i, chunk)| Delivery {
                    sub: 0,
                    source: String::new(),
                    seq: i as u64,
                    records: chunk.to_vec(),
                })
                .collect();
            &chunked
        }
    };
    let sequenced = deliveries.iter().any(|d| !d.source.is_empty());
    let subs = deliveries.iter().map(|d| d.sub).max().map_or(0, |m| m as usize + 1);
    let names: Vec<String> = (0..subs).map(|s| format!("sub-{s:03}")).collect();
    let mut dropped = 0u64;
    let mut stats = None;
    let (mut state_rss, mut threads) = (0.0, 0.0);
    if let Some(mut engine) =
        out.ok("ShardedEngine::new", ShardedEngine::new(ShardedConfig::default()))
    {
        for d in deliveries {
            let name = &names[d.sub as usize];
            let accepted = rec.time("analytics.ingest", || {
                if sequenced {
                    engine.ingest_sequenced(name, &d.source, d.seq, &d.records)
                } else {
                    engine.ingest(name, &d.records).map(|()| true)
                }
            });
            if out.ok("ShardedEngine::ingest", accepted) == Some(false) {
                dropped += d.records.len() as u64;
            }
        }
        state_rss = rss_mb();
        threads = proc_status("Threads");
        let finished = rec.time("analytics.finish", || engine.finish());
        stats = out.ok("ShardedEngine::finish", finished).map(|(_, s)| s);
    }
    let busy = rec.busy_ms("analytics.ingest");
    let calls = deliveries.len();
    out.put("analytics.ingest_busy_ms", busy, calls);
    out.put("analytics.ingest_calls", calls as f64, calls);
    out.put("analytics.ingest_ns_per_call", ratio(busy * 1e6, calls as f64), calls);
    out.put("analytics.finish_ms", rec.busy_ms("analytics.finish"), 1);
    let s = stats.unwrap_or_default();
    out.put("analytics.records_in", s.records_in as f64, 1);
    out.put("analytics.edge_entries", s.edge_entries as f64, 1);
    out.put("analytics.dedup_dropped_records", dropped as f64, calls);
    let per_shard: Vec<f64> = s.per_shard_subscriptions.iter().map(|&n| n as f64).collect();
    let mean = ratio(per_shard.iter().sum(), per_shard.len() as f64);
    out.put("analytics.shard_skew", ratio(per_shard.iter().copied().fold(0.0, f64::max), mean), 1);
    out.put("analytics.state_rss_mb", state_rss, 1);
    out.put("analytics.threads_peak", threads, 1);
}

fn linalg_stage(c: &Capture<'_>, rec: &mut Recorder, out: &mut Replayed) {
    let first = c.windows.first().copied().unwrap_or(&[]);
    let full = Workbench::new(first.to_vec(), c.monitored.clone()).byte_matrix();
    let m = out.ok("Workbench::byte_matrix", full).map(|m| {
        let n = m.rows().min(EIGEN_CAP);
        Matrix::from_rows((0..n).map(|i| m.row(i)[..n].to_vec()).collect())
    });
    let mut err = 0.0;
    let mut n = 0;
    if let Some(m) = m.as_ref().filter(|m| m.rows() > 0) {
        n = m.rows();
        let par = Parallelism::default();
        let eigen = rec.time("linalg.eigen", || eigen_symmetric_with(m, 1e-10, par));
        black_box(out.ok("eigen_symmetric_with", eigen));
        let eigen = rec
            .time("linalg.eigen_serial", || eigen_symmetric_with(m, 1e-10, Parallelism::serial()));
        black_box(out.ok("eigen_symmetric_with (serial)", eigen));
        let sweep = rec.time("linalg.pca_sweep", || pca_sweep_with(m, &[25], par));
        err = out
            .ok("pca_sweep_with", sweep)
            .and_then(|s| s.errors.first().map(|e| e.err))
            .unwrap_or(f64::NAN);
    }
    let runs = usize::from(n > 0);
    out.put("linalg.eigen_ms_p50", median(&rec.durations_ms("linalg.eigen")), runs);
    out.put("linalg.eigen_n", n as f64, runs);
    out.put("linalg.pca_sweep_ms_p50", median(&rec.durations_ms("linalg.pca_sweep")), runs);
    out.put("linalg.recon_err_k25", err, runs);
    out.put(
        "linalg.par_speedup",
        ratio(rec.busy_ms("linalg.eigen_serial"), rec.busy_ms("linalg.eigen")),
        runs,
    );
}

/// What enabling metrics costs the ingest path, and what one telemetry
/// tick (scrape + default alert pack) costs per analysed window.
fn obs_stage(c: &Capture<'_>, rec: &mut Recorder, out: &mut Replayed) {
    let timed = |o: &Obs| {
        let t = Instant::now();
        let piped = run_pipeline(c, o.clone(), |_, _| {});
        (t.elapsed().as_secs_f64(), piped)
    };
    let registry = Arc::new(Registry::new());
    let live = Obs::new(registry.clone());
    let (mut noop_s, mut live_s) = (Vec::new(), Vec::new());
    let mut piped = None;
    for _ in 0..3 {
        noop_s.push(timed(&Obs::noop()).0);
        let (s, p) = timed(&live);
        live_s.push(s);
        piped = out.ok("Pipeline::finish (live obs)", p);
    }
    out.put("obs.overhead_frac", ratio(median(&live_s), median(&noop_s)) - 1.0, 3);

    let store = Arc::new(Tsdb::new(TsdbConfig::default()));
    let scraper = Scraper::new(registry, store.clone());
    let alerts = AlertEngine::new(live.clone());
    let per_tick =
        ratio(c.windows.iter().map(|w| w.len()).sum::<usize>() as f64, c.windows.len() as f64);
    alerts.add_rules(obs::alert::default_pack(per_tick));
    let mut analyzer = WindowAnalyzer::new(c.monitored.clone(), true).with_obs(live);
    let graphs = piped.as_ref().map_or(&[][..], |p| p.sequence.graphs());
    for (i, g) in graphs.iter().enumerate().filter(|(_, g)| g.node_count() <= CLUSTER_CAP) {
        let (Some(dirty), Some(records)) =
            (piped.as_ref().and_then(|p| p.dirty_sets.get(i)), c.windows.get(i))
        else {
            continue;
        };
        black_box(
            out.ok("WindowAnalyzer::analyze (live obs)", analyzer.analyze(g, dirty, records)),
        );
        let tick = i as u64 + 1;
        rec.time("obs.tick", || {
            scraper.scrape(tick);
            black_box(alerts.evaluate(tick, &store));
        });
    }
    let ticks = rec.durations_ms("obs.tick");
    out.put("obs.tick_us_p50", median(&ticks) * 1e3, ticks.len());
    out.put("obs.series", store.series_count() as f64, ticks.len());
    out.put("obs.tsdb_mb", store.memory_bytes() as f64 / 1e6, ticks.len());
}

/// Generator-side numbers, taken while the workload's own set-up ran the
/// simulators: they can only ever move `setup_s`. A workload whose inputs
/// came from neither simulator reports 0 from 0 samples.
fn cloudsim_stage(c: &Capture<'_>, out: &mut Replayed) {
    let (busy_ms, stats) = c.net.map(|side| (side.busy_ms, side.stats.clone())).unwrap_or_default();
    let delivered = stats.delivered_packets as f64;
    let n = stats.delivered_packets as usize;
    out.put("cloudsim.net_busy_ms", busy_ms, n);
    out.put("cloudsim.net_packets", delivered, n);
    out.put("cloudsim.net_reordered_share", ratio(stats.reordered_packets as f64, delivered), n);
    out.put("cloudsim.net_duplicated_share", ratio(stats.duplicated_packets as f64, delivered), n);
    let (records, secs) = c.sim.unwrap_or_default();
    out.put(
        "cloudsim.sim_records_per_s",
        ratio(records as f64, secs),
        usize::from(c.sim.is_some()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_replay_call_is_a_failed_operation_and_nan_is_kept() {
        let mut out = Replayed::default();
        assert_eq!(out.ok("x", Ok::<_, String>(1)), Some(1));
        assert_eq!(out.ok("x", Err::<u8, _>("boom")), None);
        assert_eq!((out.attempted, out.failed), (2, 1));
        out.put("linalg.recon_err_k25", f64::NAN, 0);
        assert!(out.values[0].value.is_nan());
    }
}
