//! The continuous security monitor — Figure 8's SaaS loop as a library.
//!
//! Everything else in this crate analyzes a *window you already have*. The
//! monitor is the stateful driver a deployed service runs forever:
//!
//! 1. **Learning**: accumulate `learn_windows` windows of telemetry, then
//!    derive the baseline — roles, µsegments, default-deny policy, the PCA
//!    pattern model, and a calibrated anomaly threshold.
//! 2. **Enforcing**: every subsequent window is checked three ways —
//!    per-flow policy violations, whole-window anomaly score, and the
//!    structural what-changed diff — and the monitor emits typed
//!    [`MonitorEvent`]s an operator pipeline can route to dashboards,
//!    tickets, or enforcement.
//!
//! Feed it minute batches with [`SecurityMonitor::ingest`]; events come back
//! as windows close.
//!
//! Windowing is not the monitor's: it is a client of the window roll
//! ([`commgraph_graph::builder::WindowedBuilder`]), which says what became
//! of each record and hands over each closed window's graph exactly once.
//! The monitor buffers no record. While learning, each record the roll
//! admits is also fed to one [`GraphBuilder`] spanning the learning period,
//! and the baseline's segmentation and policy are learned from its graph.
//! While enforcing, each admitted record is checked as it arrives: the
//! policy in force changes only at a window boundary, so that is exactly a
//! check of the window's records at its close. Checks read records; learning
//! reads edges.

use crate::anomaly::{AnomalyError, PatternModel};
use crate::workbench::Workbench;
use commgraph_graph::collapse::collapse_default;
use commgraph_graph::diff::diff;
use commgraph_graph::{CommGraph, Facet, GraphBuilder, Inventory, Outcome, WindowedBuilder};
use flowlog::record::ConnSummary;
use flowlog::time::bucket_start;
use obs::{names, Counter, Gauge, Histogram, Level, Obs};
use segment::{Violation, ViolationDetector};
use serde::Serialize;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Window length in seconds (3600 = the paper's hourly graphs).
    pub window_len: u64,
    /// Clean windows to learn from before enforcing (≥ 2: the first fits
    /// the models, the rest calibrate the anomaly threshold).
    pub learn_windows: usize,
    /// PCA components for the pattern model.
    pub anomaly_k: usize,
    /// Cap on per-window violation events (summaries always carry the full
    /// count); keeps a port scan from emitting — or the monitor from
    /// holding — a million events. Read as each violation is found.
    pub max_violation_events: usize,
}

/// Safety margin over the worst clean anomaly score.
const ANOMALY_MARGIN: f64 = 1.5;
/// Volume-change ratio that makes a persisting edge reportable.
const CHANGE_RATIO: f64 = 3.0;

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_len: 3600,
            learn_windows: 3,
            anomaly_k: 25,
            max_violation_events: 64,
        }
    }
}

/// Events the monitor emits as windows close.
#[derive(Debug, Clone, Serialize)]
pub enum MonitorEvent {
    /// The learning phase completed; enforcement starts next window.
    BaselineReady {
        /// Windows learned from.
        windows: usize,
        /// µsegments derived.
        segments: usize,
        /// Allow rules learned.
        allow_rules: usize,
        /// Calibrated anomaly threshold.
        anomaly_threshold: f64,
    },
    /// A closed window's roll-up.
    WindowSummary {
        /// Window start time.
        window_start: u64,
        /// Records in the window.
        records: usize,
        /// Policy violations raised.
        violations: usize,
        /// Anomaly score (ratio over the baseline noise floor).
        anomaly_score: f64,
        /// Whether the window was flagged anomalous.
        anomalous: bool,
        /// Edges that appeared vs the previous window.
        new_edges: usize,
        /// Edges that vanished vs the previous window.
        gone_edges: usize,
    },
    /// One policy violation (emitted per offending flow, capped per window).
    PolicyViolation(Violation),
}

/// Phase of the monitor's lifecycle.
enum Phase {
    /// The learning period so far: one builder fed every admitted record of
    /// every learning window (`None` until the first arrives), and one
    /// collapsed graph per closed learning window, in time order.
    Learning {
        // bound: one edge entry per distinct (local, remote) pair of the
        // learning period; spill entries ≤ its distinct (edge, port) pairs.
        period: Option<GraphBuilder>,
        // bound: ≤ `learn_windows` graphs; a failed fit drops the oldest.
        graphs: Vec<CommGraph>,
    },
    Enforcing(Box<Baseline>),
}

/// What the open window has seen so far; taken when it closes.
#[derive(Default)]
struct Tally {
    /// Records admitted to it, vantage duplicates included.
    admitted: usize,
    /// Records dropped because their own window had already closed.
    behind: usize,
    /// Policy violations found (enforcing only).
    violations: usize,
    /// The first of them, in arrival order, to emit as events.
    // bound: ≤ `MonitorConfig::max_violation_events` entries.
    events: Vec<Violation>,
}

struct Baseline {
    detector: ViolationDetector,
    model: PatternModel,
    threshold: f64,
    previous_window: Option<CommGraph>,
}

/// Monitor-level metrics, resolved once at construction. With a noop [`Obs`]
/// every handle is inert and each update costs one branch.
struct MonitorMetrics {
    /// `commgraph_monitor_windows_total{phase}` — windows closed per phase.
    windows_learning: Counter,
    windows_enforcing: Counter,
    /// `commgraph_monitor_violations_total` — policy violations detected
    /// (full count, not capped like the emitted events).
    violations: Counter,
    /// `commgraph_monitor_anomaly_score` — per-window anomaly scores.
    anomaly_score: Histogram,
    /// `commgraph_monitor_anomalous_windows_total` — windows over threshold.
    anomalous_windows: Counter,
    /// Baseline shape, set once when learning completes.
    baseline_segments: Gauge,
    baseline_allow_rules: Gauge,
    baseline_threshold: Gauge,
    /// `commgraph_window_roll_lag_seconds{source="monitor"}` — how far into
    /// a new window its opening record landed.
    roll_lag: Histogram,
}

impl MonitorMetrics {
    fn resolve(o: &Obs) -> MonitorMetrics {
        let windows = |phase| o.counter(&names::MONITOR_WINDOWS_TOTAL, [phase]);
        MonitorMetrics {
            windows_learning: windows("learning"),
            windows_enforcing: windows("enforcing"),
            violations: o.counter(&names::MONITOR_VIOLATIONS_TOTAL, []),
            anomaly_score: o.histogram(&names::MONITOR_ANOMALY_SCORE, []),
            anomalous_windows: o.counter(&names::MONITOR_ANOMALOUS_WINDOWS_TOTAL, []),
            baseline_segments: o.gauge(&names::MONITOR_BASELINE_SEGMENTS, []),
            baseline_allow_rules: o.gauge(&names::MONITOR_BASELINE_ALLOW_RULES, []),
            baseline_threshold: o.gauge(&names::MONITOR_BASELINE_ANOMALY_THRESHOLD, []),
            roll_lag: o.histogram(&names::WINDOW_ROLL_LAG_SECONDS, ["monitor"]),
        }
    }
}

/// The continuous monitor. See module docs for the lifecycle.
pub struct SecurityMonitor {
    cfg: MonitorConfig,
    monitored: Inventory,
    phase: Phase,
    roll: WindowedBuilder,
    /// The open window's tally, reported when it closes.
    open: Tally,
    obs: Obs,
    metrics: MonitorMetrics,
}

impl SecurityMonitor {
    /// New monitor for a subscription with the given monitored inventory.
    ///
    /// # Panics
    /// Panics if `learn_windows < 2` (one to fit, one to calibrate).
    pub fn new(cfg: MonitorConfig, monitored: HashSet<Ipv4Addr>) -> Self {
        SecurityMonitor::with_obs(cfg, monitored, Obs::noop())
    }

    /// Like [`SecurityMonitor::new`] with an observability handle: every
    /// emitted [`MonitorEvent`] is mirrored to the event log (baselines and
    /// summaries at `info`, violations and anomalous windows at `warn`),
    /// and window/violation/anomaly tallies feed `commgraph_monitor_*`
    /// metrics. Events returned to the caller are identical either way.
    pub fn with_obs(cfg: MonitorConfig, monitored: HashSet<Ipv4Addr>, obs: Obs) -> Self {
        assert!(cfg.learn_windows >= 2, "need >= 2 learning windows");
        let metrics = MonitorMetrics::resolve(&obs);
        let monitored = Inventory::from(monitored);
        SecurityMonitor {
            roll: WindowedBuilder::new(cfg.window_len).with_monitored(monitored.clone()),
            cfg,
            monitored,
            phase: Phase::Learning { period: None, graphs: Vec::new() },
            open: Tally::default(),
            obs,
            metrics,
        }
    }

    /// Ingest a batch of records. Returns any events produced by windows
    /// that closed.
    ///
    /// Timestamps may jitter within the open window. A record whose window
    /// is *behind* the open one is dropped (the roll never re-opens a closed
    /// window: that would emit it twice), and the drops are reported in one
    /// `warn` event when the open window closes.
    pub fn ingest(&mut self, batch: &[ConnSummary]) -> Vec<MonitorEvent> {
        let mut events = Vec::new();
        for r in batch {
            let (outcome, closed) = self.roll.add(r);
            if let Some(graph) = closed {
                self.close_window(&graph, &mut events);
                let lag = r.ts - bucket_start(r.ts, self.cfg.window_len);
                self.metrics.roll_lag.record(lag as f64);
            }
            match outcome {
                Outcome::Behind => self.open.behind += 1,
                Outcome::Kept | Outcome::Deduped => self.admit(r),
            }
        }
        events
    }

    /// A record the roll admitted to the open window: learned from, or
    /// checked against the policy in force.
    fn admit(&mut self, r: &ConnSummary) {
        self.open.admitted += 1;
        match &mut self.phase {
            Phase::Learning { period, .. } => {
                let len = self.cfg.window_len;
                let fresh = || {
                    let start = bucket_start(r.ts, len);
                    let span = len.saturating_mul(self.cfg.learn_windows as u64);
                    GraphBuilder::new(Facet::Ip, start, span).with_monitored(self.monitored.clone())
                };
                period.get_or_insert_with(fresh).add(r);
            }
            Phase::Enforcing(baseline) => {
                if let Some(v) = baseline.detector.check(r) {
                    self.open.violations += 1;
                    if self.open.events.len() < self.cfg.max_violation_events {
                        self.open.events.push(v);
                    }
                }
            }
        }
    }

    /// Force-close the open window (end of stream).
    pub fn flush(&mut self) -> Vec<MonitorEvent> {
        let mut events = Vec::new();
        if let Some(graph) = self.roll.finish() {
            self.close_window(&graph, &mut events);
        }
        events
    }

    /// React to the roll handing over a closed window's `graph`.
    fn close_window(&mut self, graph: &CommGraph, events: &mut Vec<MonitorEvent>) {
        let window_start = graph.window_start();
        let tally = std::mem::take(&mut self.open);
        if tally.behind > 0 && self.obs.logs(Level::Warn) {
            self.obs.event(
                Level::Warn,
                "monitor",
                "late records dropped",
                &[
                    ("window_start", window_start.to_string()),
                    ("dropped", tally.behind.to_string()),
                ],
            );
        }
        // The per-window trace span: baseline building and all per-window
        // analysis below nest under it on the run timeline.
        let mut tspan = self.obs.trace_span("monitor_window");
        if tspan.is_enabled() {
            tspan.attr("window_start", &window_start.to_string());
            tspan.attr("records", &tally.admitted.to_string());
        }
        let graph = collapse_default(graph);
        match &mut self.phase {
            Phase::Learning { period, graphs } => {
                graphs.push(graph);
                self.metrics.windows_learning.inc();
                if tspan.is_enabled() {
                    tspan.attr("phase", "learning");
                }
                if graphs.len() >= self.cfg.learn_windows {
                    let (model, threshold) = match fit_model(&self.cfg, graphs) {
                        Ok(fitted) => fitted,
                        Err(e) => {
                            // Degenerate learning data (e.g. an empty or
                            // unscorable first window): drop the window the
                            // fit read, stay in learning, and retry at the
                            // next boundary on the windows after it.
                            graphs.remove(0);
                            if self.obs.logs(Level::Warn) {
                                self.obs.event(
                                    Level::Warn,
                                    "monitor",
                                    "baseline deferred",
                                    &[("reason", e.to_string())],
                                );
                            }
                            return;
                        }
                    };
                    // Segmentation and policy learn from the learning
                    // period's graph. A window opens only on an admitted
                    // record, so the period has seen one.
                    let Some(period) = period.take() else { return };
                    let done = graphs.len();
                    let mut wb = Workbench::from_builder(period).with_obs(self.obs.clone());
                    let (segmentation, policy) = (wb.segmentation().clone(), wb.policy().clone());
                    let (segments, allow_rules) = (segmentation.len(), policy.rule_count());
                    let detector = ViolationDetector::new(segmentation, policy);
                    self.metrics.baseline_segments.set(segments as f64);
                    self.metrics.baseline_allow_rules.set(allow_rules as f64);
                    self.metrics.baseline_threshold.set(threshold);
                    if self.obs.logs(Level::Info) {
                        self.obs.event(
                            Level::Info,
                            "monitor",
                            "baseline ready",
                            &[
                                ("windows", done.to_string()),
                                ("segments", segments.to_string()),
                                ("allow_rules", allow_rules.to_string()),
                                ("anomaly_threshold", format!("{threshold:.4}")),
                            ],
                        );
                    }
                    events.push(MonitorEvent::BaselineReady {
                        windows: done,
                        segments,
                        allow_rules,
                        anomaly_threshold: threshold,
                    });
                    let baseline = Baseline { detector, model, threshold, previous_window: None };
                    self.phase = Phase::Enforcing(Box::new(baseline));
                }
            }
            Phase::Enforcing(baseline) => {
                // Anomaly score.
                let score = baseline.model.score(&graph).map(|s| s.score).unwrap_or(f64::INFINITY);
                let anomalous = score > baseline.threshold;

                // Structural diff vs the previous window.
                let (new_edges, gone_edges) = match &baseline.previous_window {
                    Some(prev) => {
                        let d = diff(prev, &graph, CHANGE_RATIO);
                        (d.added_edges.len(), d.removed_edges.len())
                    }
                    None => (0, 0),
                };
                baseline.previous_window = Some(graph);

                self.metrics.windows_enforcing.inc();
                self.metrics.violations.add(tally.violations as u64);
                self.metrics.anomaly_score.record(score);
                if anomalous {
                    self.metrics.anomalous_windows.inc();
                }
                if tspan.is_enabled() {
                    tspan.attr("phase", "enforcing");
                    tspan.attr("violations", &tally.violations.to_string());
                    tspan.attr("anomaly_score", &format!("{score:.4}"));
                    tspan.attr("anomalous", &anomalous.to_string());
                    if anomalous {
                        tspan.add_event(
                            "anomaly",
                            &[
                                ("score", format!("{score:.4}")),
                                ("threshold", format!("{:.4}", baseline.threshold)),
                            ],
                        );
                    }
                }
                let summary_level = if anomalous { Level::Warn } else { Level::Info };
                if self.obs.logs(summary_level) {
                    self.obs.event(
                        summary_level,
                        "monitor",
                        "window summary",
                        &[
                            ("window_start", window_start.to_string()),
                            ("records", tally.admitted.to_string()),
                            ("violations", tally.violations.to_string()),
                            ("anomaly_score", format!("{score:.4}")),
                            ("anomalous", anomalous.to_string()),
                            ("new_edges", new_edges.to_string()),
                            ("gone_edges", gone_edges.to_string()),
                        ],
                    );
                }

                events.push(MonitorEvent::WindowSummary {
                    window_start,
                    records: tally.admitted,
                    violations: tally.violations,
                    anomaly_score: score,
                    anomalous,
                    new_edges,
                    gone_edges,
                });
                for v in tally.events.into_iter().take(self.cfg.max_violation_events) {
                    if self.obs.logs(Level::Warn) {
                        self.obs.event(
                            Level::Warn,
                            "monitor",
                            "policy violation",
                            &[
                                ("window_start", window_start.to_string()),
                                ("violation", format!("{v:?}")),
                            ],
                        );
                    }
                    events.push(MonitorEvent::PolicyViolation(v));
                }
            }
        }
    }
}

/// Fit the pattern model on the first learning window's collapsed graph and
/// calibrate its anomaly threshold on the rest.
fn fit_model(
    cfg: &MonitorConfig,
    graphs: &[CommGraph],
) -> Result<(PatternModel, f64), AnomalyError> {
    let Some((first, rest)) = graphs.split_first() else {
        return Err(AnomalyError::Fit("no learning windows".into()));
    };
    let model = PatternModel::fit(first, cfg.anomaly_k)?;
    let threshold = model.calibrate_threshold(rest, ANOMALY_MARGIN)?;
    Ok((model, threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::attack::{AttackKind, AttackScenario};
    use cloudsim::{ClusterPreset, SimConfig, Simulator};

    fn monitored_of(sim: &Simulator) -> HashSet<Ipv4Addr> {
        sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect()
    }

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            window_len: 600, // 10-minute windows keep the test fast
            learn_windows: 2,
            anomaly_k: 10,
            ..MonitorConfig::default()
        }
    }

    #[test]
    fn learns_then_enforces_quietly_on_clean_traffic() {
        let preset = ClusterPreset::MicroserviceBench;
        let mut sim =
            Simulator::new(preset.topology_scaled(0.3), preset.default_sim_config()).unwrap();
        let monitored = monitored_of(&sim);
        let mut monitor = SecurityMonitor::new(cfg(), monitored);

        let mut events = Vec::new();
        sim.run(40, |_, batch| events.extend(monitor.ingest(batch)));
        events.extend(monitor.flush());

        assert!(matches!(monitor.phase, Phase::Enforcing(_)));
        let baseline_ready = events.iter().any(|e| matches!(e, MonitorEvent::BaselineReady { .. }));
        assert!(baseline_ready, "baseline event emitted");
        let summaries: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::WindowSummary { violations, anomalous, .. } => {
                    Some((*violations, *anomalous))
                }
                _ => None,
            })
            .collect();
        assert!(!summaries.is_empty(), "enforced windows produce summaries");
        for (violations, anomalous) in &summaries {
            assert_eq!(*violations, 0, "clean traffic must not violate its own baseline");
            assert!(!anomalous, "clean traffic must stay under the calibrated threshold");
        }
    }

    #[test]
    fn attack_window_raises_violations() {
        let preset = ClusterPreset::MicroserviceBench;
        let topo = preset.topology_scaled(0.3);
        let breached =
            topo.ip_of(topo.role_named("frontend").expect("role").id, 0).expect("slot 0");
        let sim_cfg = SimConfig {
            attacks: vec![AttackScenario {
                kind: AttackKind::LateralMovement,
                // Starts after two 10-minute learning windows.
                start_min: 25,
                duration_min: 15,
                breached,
                intensity: 6,
            }],
            ..preset.default_sim_config()
        };
        let mut sim = Simulator::new(topo, sim_cfg).unwrap();
        let monitored = monitored_of(&sim);
        let mut monitor = SecurityMonitor::new(cfg(), monitored);

        let mut events = Vec::new();
        sim.run(45, |_, batch| events.extend(monitor.ingest(batch)));
        events.extend(monitor.flush());

        let total_violations: usize = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::WindowSummary { violations, .. } => Some(*violations),
                _ => None,
            })
            .sum();
        assert!(total_violations > 0, "lateral movement must trip the policy");
        assert!(
            events.iter().any(|e| matches!(e, MonitorEvent::PolicyViolation(_))),
            "individual violations are surfaced"
        );
        // The per-window event cap holds.
        let violation_events =
            events.iter().filter(|e| matches!(e, MonitorEvent::PolicyViolation(_))).count();
        let windows =
            events.iter().filter(|e| matches!(e, MonitorEvent::WindowSummary { .. })).count();
        assert!(violation_events <= windows * 64);
    }

    #[test]
    fn metrics_and_event_log_agree_with_returned_events() {
        let preset = ClusterPreset::MicroserviceBench;
        let topo = preset.topology_scaled(0.3);
        let breached =
            topo.ip_of(topo.role_named("frontend").expect("role").id, 0).expect("slot 0");
        let sim_cfg = SimConfig {
            attacks: vec![AttackScenario {
                kind: AttackKind::LateralMovement,
                start_min: 25,
                duration_min: 15,
                breached,
                intensity: 6,
            }],
            ..preset.default_sim_config()
        };
        let mut sim = Simulator::new(topo, sim_cfg).unwrap();
        let monitored = monitored_of(&sim);
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut monitor =
            SecurityMonitor::with_obs(cfg(), monitored, obs::Obs::new(registry.clone()));

        let mut events = Vec::new();
        sim.run(45, |_, batch| events.extend(monitor.ingest(batch)));
        events.extend(monitor.flush());

        let summaries: Vec<(usize, f64)> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::WindowSummary { violations, anomaly_score, .. } => {
                    Some((*violations, *anomaly_score))
                }
                _ => None,
            })
            .collect();
        let violation_events =
            events.iter().filter(|e| matches!(e, MonitorEvent::PolicyViolation(_))).count();

        // Counters track the events the caller saw.
        let learning = registry.counter(&names::MONITOR_WINDOWS_TOTAL, ["learning"]).get();
        assert_eq!(learning, cfg().learn_windows as u64);
        let enforcing = registry.counter(&names::MONITOR_WINDOWS_TOTAL, ["enforcing"]).get();
        assert_eq!(enforcing, summaries.len() as u64);
        let violations = registry.counter(&names::MONITOR_VIOLATIONS_TOTAL, []).get();
        assert_eq!(violations, summaries.iter().map(|(v, _)| *v as u64).sum::<u64>());
        assert!(violations > 0, "the attack must trip the policy");

        // The anomaly-score histogram saw one sample per enforced window.
        let scores = registry.histogram(&names::MONITOR_ANOMALY_SCORE, []);
        assert_eq!(scores.count(), summaries.len() as u64);

        // Baseline gauges mirror the BaselineReady event.
        let (segments, threshold) = events
            .iter()
            .find_map(|e| match e {
                MonitorEvent::BaselineReady { segments, anomaly_threshold, .. } => {
                    Some((*segments, *anomaly_threshold))
                }
                _ => None,
            })
            .expect("baseline event emitted");
        let g = registry.gauge(&names::MONITOR_BASELINE_SEGMENTS, []);
        assert_eq!(g.get(), segments as f64);
        let t = registry.gauge(&names::MONITOR_BASELINE_ANOMALY_THRESHOLD, []);
        assert_eq!(t.get(), threshold);

        // The event log mirrors what was returned.
        let log = registry.events();
        assert_eq!(
            log.iter().filter(|e| e.message == "baseline ready").count(),
            1,
            "one baseline event logged"
        );
        assert_eq!(log.iter().filter(|e| e.message == "window summary").count(), summaries.len());
        assert_eq!(
            log.iter().filter(|e| e.message == "policy violation").count(),
            violation_events,
            "each emitted violation event is mirrored at warn"
        );
        assert!(log
            .iter()
            .filter(|e| e.message == "policy violation")
            .all(|e| e.level == obs::Level::Warn));
    }

    /// Regression, swept over straggler positions: a straggler from an
    /// already-closed window used to close the open window early and re-open
    /// the old one, so a window was summarised twice and learning counted
    /// windows that never happened.
    #[test]
    fn late_record_never_reopens_a_closed_window() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        use std::collections::{BTreeMap, BTreeSet};
        let preset = ClusterPreset::Portal;
        let mut sim =
            Simulator::new(preset.topology_scaled(0.5), preset.default_sim_config()).unwrap();
        let monitored = monitored_of(&sim);
        let cfg = MonitorConfig { window_len: 300, ..cfg() };
        let mut minutes: Vec<Vec<ConnSummary>> = Vec::new();
        sim.run(24, |_, batch| minutes.push(batch.to_vec()));

        let mut drops_by_phase = [0usize; 2];
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Each minute's batch in order and, after every other one on
            // average, one record of a random earlier minute again: behind
            // the open window — in the learning phase or the enforcing one —
            // or still inside it.
            let mut stream: Vec<Vec<ConnSummary>> = Vec::new();
            for (m, batch) in minutes.iter().enumerate() {
                stream.push(batch.clone());
                let from = &minutes[rng.random_range(0..m + 1)];
                if let (true, Some(r)) = (rng.random_bool(0.5), from.first()) {
                    stream.push(vec![*r]);
                }
            }
            // The reference: a record is admitted iff its window is not
            // behind the newest window seen before it.
            let mut admitted: BTreeMap<u64, usize> = BTreeMap::new();
            let mut windows_that_dropped = BTreeSet::new();
            let mut newest = 0;
            for r in stream.iter().flatten() {
                let w = bucket_start(r.ts, cfg.window_len);
                if w < newest {
                    windows_that_dropped.insert(newest);
                } else {
                    newest = w;
                    *admitted.entry(w).or_default() += 1;
                }
            }
            let first_enforced = admitted.keys().nth(cfg.learn_windows).copied();
            for w in &windows_that_dropped {
                drops_by_phase[usize::from(Some(*w) >= first_enforced)] += 1;
            }

            let registry = std::sync::Arc::new(obs::Registry::new());
            let mut monitor = SecurityMonitor::with_obs(
                cfg.clone(),
                monitored.clone(),
                obs::Obs::new(registry.clone()),
            );
            let mut events = Vec::new();
            for batch in &stream {
                events.extend(monitor.ingest(batch));
            }
            events.extend(monitor.flush());

            let baselines: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    MonitorEvent::BaselineReady { windows, .. } => Some(*windows),
                    _ => None,
                })
                .collect();
            assert_eq!(baselines, vec![cfg.learn_windows], "seed {seed}: one baseline");
            let summaries: Vec<(u64, usize)> = events
                .iter()
                .filter_map(|e| match e {
                    MonitorEvent::WindowSummary { window_start, records, .. } => {
                        Some((*window_start, *records))
                    }
                    _ => None,
                })
                .collect();
            assert!(summaries.len() >= 2, "enforced windows produce summaries");
            assert!(
                summaries.windows(2).all(|w| w[0].0 < w[1].0),
                "seed {seed}: one summary per window: {summaries:?}"
            );
            let enforced: Vec<(u64, usize)> =
                admitted.into_iter().skip(cfg.learn_windows).collect();
            assert_eq!(summaries, enforced, "seed {seed}: each window holds its admitted records");
            let learning = registry.counter(&names::MONITOR_WINDOWS_TOTAL, ["learning"]).get();
            assert_eq!(learning, cfg.learn_windows as u64, "seed {seed}");
            let log = registry.events();
            let drops: Vec<_> =
                log.iter().filter(|e| e.message == "late records dropped").collect();
            assert_eq!(
                drops.len(),
                windows_that_dropped.len(),
                "seed {seed}: one warn event per window that dropped records"
            );
            assert!(drops.iter().all(|e| e.level == obs::Level::Warn));
        }
        assert!(drops_by_phase.iter().all(|&n| n >= 8), "both phases swept: {drops_by_phase:?}");
    }

    /// `(ts, local, remote, port, verdict, bytes)`: everything a violation says.
    type Flagged = (u64, Ipv4Addr, Ipv4Addr, u16, segment::Verdict, u64);

    fn flagged(v: &Violation) -> Flagged {
        (v.ts, v.local_ip, v.remote_ip, v.port, v.verdict.clone(), v.bytes)
    }

    /// An enforced window: its start, its admitted records, its violations.
    type Enforced = (u64, usize, Vec<Flagged>);

    /// The monitor as written with both record buffers: each window's
    /// admitted records kept until it closes, the learning windows' records
    /// concatenated into one `Workbench`, and each enforced window's records
    /// checked at its close. Returns the baseline's `(segments, allow rules)`
    /// and, per enforced window, its start, admitted records and violations.
    fn buffered_reference(
        stream: &[ConnSummary],
        cfg: &MonitorConfig,
        monitored: &HashSet<Ipv4Addr>,
    ) -> ((usize, usize), Vec<Enforced>) {
        use std::collections::BTreeMap;
        let mut windows: BTreeMap<u64, Vec<ConnSummary>> = BTreeMap::new();
        let mut newest = 0;
        for r in stream {
            let w = bucket_start(r.ts, cfg.window_len);
            if w >= newest {
                newest = w;
                windows.entry(w).or_default().push(*r);
            }
        }
        let learned: Vec<ConnSummary> =
            windows.values().take(cfg.learn_windows).flatten().copied().collect();
        let mut wb = Workbench::new(learned, monitored.clone());
        let (seg, policy) = (wb.segmentation().clone(), wb.policy().clone());
        let baseline = (seg.len(), policy.rule_count());
        let mut det = ViolationDetector::new(seg, policy);
        let enforced = windows
            .iter()
            .skip(cfg.learn_windows)
            .map(|(w, records)| {
                (*w, records.len(), det.check_all(records).iter().map(flagged).collect())
            })
            .collect();
        (baseline, enforced)
    }

    /// Checking each record as the roll admits it, and learning the baseline
    /// from one builder fed over the learning period, raise exactly what
    /// buffering the records did: the same baseline, the same per-window
    /// counts, and the same violations in the same order — over a breach,
    /// vantage duplicates and stragglers behind the open window, in the
    /// learning phase and the enforcing one. The event cap truncates that
    /// sequence and bounds what the monitor holds, never the counts.
    #[test]
    fn checking_on_arrival_equals_checking_the_buffered_window() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let preset = ClusterPreset::MicroserviceBench;
        let topo = preset.topology_scaled(0.3);
        let breached =
            topo.ip_of(topo.role_named("frontend").expect("role").id, 0).expect("slot 0");
        let sim_cfg = SimConfig {
            attacks: vec![AttackScenario {
                kind: AttackKind::LateralMovement,
                start_min: 12,
                duration_min: 8,
                breached,
                intensity: 6,
            }],
            ..preset.default_sim_config()
        };
        let mut sim = Simulator::new(topo, sim_cfg).unwrap();
        let monitored = monitored_of(&sim);
        let cfg = MonitorConfig { window_len: 300, ..cfg() };
        let mut minutes: Vec<Vec<ConnSummary>> = Vec::new();
        sim.run(26, |_, batch| minutes.push(batch.to_vec()));

        let mut swept = 0;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stream: Vec<Vec<ConnSummary>> = Vec::new();
            for (m, batch) in minutes.iter().enumerate() {
                stream.push(batch.clone());
                let from = &minutes[rng.random_range(0..m + 1)];
                if rng.random_bool(0.5) && !from.is_empty() {
                    stream.push(vec![from[rng.random_range(0..from.len())]]);
                }
            }
            let flat: Vec<ConnSummary> = stream.iter().flatten().copied().collect();
            let (baseline, enforced) = buffered_reference(&flat, &cfg, &monitored);

            let cap = if seed % 2 == 0 { usize::MAX } else { 3 };
            let capped = MonitorConfig { max_violation_events: cap, ..cfg.clone() };
            let mut monitor = SecurityMonitor::new(capped, monitored.clone());
            let mut events = Vec::new();
            for batch in &stream {
                events.extend(monitor.ingest(batch));
                assert!(monitor.open.events.len() <= cap.min(monitor.open.violations));
            }
            events.extend(monitor.flush());

            let baselines: Vec<(usize, usize)> = events
                .iter()
                .filter_map(|e| match e {
                    MonitorEvent::BaselineReady { segments, allow_rules, .. } => {
                        Some((*segments, *allow_rules))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(baselines, [baseline], "seed {seed}");
            let mut got: Vec<(u64, usize, usize, Vec<Flagged>)> = Vec::new();
            for e in &events {
                match e {
                    MonitorEvent::WindowSummary { window_start, records, violations, .. } => {
                        got.push((*window_start, *records, *violations, Vec::new()))
                    }
                    MonitorEvent::PolicyViolation(v) => {
                        got.last_mut().expect("a summary first").3.push(flagged(v))
                    }
                    MonitorEvent::BaselineReady { .. } => {}
                }
            }
            let want: Vec<(u64, usize, usize, Vec<Flagged>)> = enforced
                .iter()
                .map(|(w, n, vs)| (*w, *n, vs.len(), vs.iter().take(cap).cloned().collect()))
                .collect();
            assert_eq!(got, want, "seed {seed}, cap {cap}");
            swept += enforced.iter().map(|(_, _, vs)| vs.len()).sum::<usize>();
        }
        assert!(swept > 500, "the breach is in the sweep: {swept}");
    }

    /// One flow between two monitored VMs, as both vantages report it: the
    /// copy dedup keeps and the copy it leaves out. A window holding only
    /// the second closes on an empty graph, which the pattern model cannot
    /// fit.
    fn kept_and_deduped() -> (ConnSummary, ConnSummary) {
        use flowlog::record::FlowKey;
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let flow = ConnSummary {
            ts: 0,
            key: FlowKey::tcp(a, 40_000, b, 443),
            pkts_sent: 1,
            pkts_rcvd: 1,
            bytes_sent: 100,
            bytes_rcvd: 100,
        };
        if flow.key.is_canonical() {
            (flow, flow.mirrored())
        } else {
            (flow.mirrored(), flow)
        }
    }

    fn deferred_count(registry: &obs::Registry) -> usize {
        registry.events().iter().filter(|e| e.message == "baseline deferred").count()
    }

    /// An unfittable first learning window defers the baseline once, at the
    /// first boundary, with a warn event; the failed fit drops that window,
    /// so the next boundary fits on the next (non-empty) window and the
    /// monitor enforces from then on.
    #[test]
    fn unfittable_first_window_defers_the_baseline() {
        let (kept, deduped) = kept_and_deduped();
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut monitor = SecurityMonitor::with_obs(
            cfg(),
            [kept.key.local_ip, kept.key.remote_ip].into_iter().collect(),
            obs::Obs::new(registry.clone()),
        );
        monitor.ingest(&[deduped]);
        monitor.ingest(&[ConnSummary { ts: cfg().window_len, ..kept }]);
        monitor.ingest(&[ConnSummary { ts: 2 * cfg().window_len, ..kept }]);
        assert_eq!(deferred_count(&registry), 1, "window 0 deferred the first boundary");
        assert!(matches!(monitor.phase, Phase::Learning { .. }));
        monitor.ingest(&[ConnSummary { ts: 3 * cfg().window_len, ..kept }]);
        assert_eq!(deferred_count(&registry), 1, "windows 1 and 2 fit");
        assert!(matches!(monitor.phase, Phase::Enforcing(_)));
        let learning = registry.counter(&names::MONITOR_WINDOWS_TOTAL, ["learning"]).get();
        assert_eq!(learning, 3);
    }

    /// A fit that always fails holds a bounded learning state: however many
    /// unfittable windows close, the monitor keeps at most `learn_windows`
    /// graphs.
    #[test]
    fn always_failing_fit_holds_at_most_learn_windows_graphs() {
        let (kept, deduped) = kept_and_deduped();
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut monitor = SecurityMonitor::with_obs(
            cfg(),
            [kept.key.local_ip, kept.key.remote_ip].into_iter().collect(),
            obs::Obs::new(registry.clone()),
        );
        for w in 0..12 {
            monitor.ingest(&[ConnSummary { ts: w * cfg().window_len, ..deduped }]);
            let Phase::Learning { graphs, .. } = &monitor.phase else {
                panic!("an empty window never fits")
            };
            assert!(graphs.len() <= cfg().learn_windows, "window {w}: {} graphs", graphs.len());
        }
        assert!(monitor.flush().is_empty());
        assert_eq!(deferred_count(&registry), 11, "every boundary from window 1 on defers");
    }

    #[test]
    #[should_panic(expected = "learning windows")]
    fn rejects_single_learning_window() {
        let c = MonitorConfig { learn_windows: 1, ..cfg() };
        SecurityMonitor::new(c, HashSet::new());
    }
}
