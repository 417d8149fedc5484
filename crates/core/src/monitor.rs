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

use crate::anomaly::PatternModel;
use crate::workbench::Workbench;
use commgraph_graph::collapse::collapse_default;
use commgraph_graph::diff::diff;
use commgraph_graph::{CommGraph, Facet, GraphBuilder};
use flowlog::record::ConnSummary;
use flowlog::time::bucket_start;
use obs::{Counter, Gauge, Histogram, Level, Obs};
use segment::{SegmentPolicy, Segmentation, Violation, ViolationDetector};
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
    /// Safety margin over the worst clean anomaly score.
    pub anomaly_margin: f64,
    /// Volume-change ratio that makes a persisting edge reportable.
    pub change_ratio: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_len: 3600,
            learn_windows: 3,
            anomaly_k: 25,
            anomaly_margin: 1.5,
            change_ratio: 3.0,
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
    Learning { windows_done: usize, records: Vec<ConnSummary> },
    Enforcing(Box<Baseline>),
}

struct Baseline {
    segmentation: Segmentation,
    policy: SegmentPolicy,
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
        let windows = |phase| {
            o.counter(
                "commgraph_monitor_windows_total",
                "Windows closed by the security monitor, by lifecycle phase.",
                &[("phase", phase)],
            )
        };
        MonitorMetrics {
            windows_learning: windows("learning"),
            windows_enforcing: windows("enforcing"),
            violations: o.counter(
                "commgraph_monitor_violations_total",
                "Policy violations detected in enforced windows (uncapped).",
                &[],
            ),
            anomaly_score: o.histogram(
                "commgraph_monitor_anomaly_score",
                "Per-window anomaly score (ratio over the baseline noise floor).",
                &[],
            ),
            anomalous_windows: o.counter(
                "commgraph_monitor_anomalous_windows_total",
                "Enforced windows whose anomaly score exceeded the threshold.",
                &[],
            ),
            baseline_segments: o.gauge(
                "commgraph_monitor_baseline_segments",
                "µsegments in the learned baseline.",
                &[],
            ),
            baseline_allow_rules: o.gauge(
                "commgraph_monitor_baseline_allow_rules",
                "Allow rules in the learned baseline policy.",
                &[],
            ),
            baseline_threshold: o.gauge(
                "commgraph_monitor_baseline_anomaly_threshold",
                "Calibrated anomaly threshold of the learned baseline.",
                &[],
            ),
            roll_lag: o.histogram(
                "commgraph_window_roll_lag_seconds",
                "Lag between a window's nominal start and the record that rolled it open.",
                &[("source", "monitor")],
            ),
        }
    }
}

/// The continuous monitor. See module docs for the lifecycle.
pub struct SecurityMonitor {
    cfg: MonitorConfig,
    monitored: HashSet<Ipv4Addr>,
    phase: Phase,
    current_window_start: Option<u64>,
    current_records: Vec<ConnSummary>,
    /// Records dropped since the open window started because their own
    /// window had already closed; reported when the open window closes.
    dropped_behind: usize,
    obs: Obs,
    metrics: MonitorMetrics,
    /// Cap on per-window violation events (summaries always carry the full
    /// count); keeps a port scan from emitting a million events.
    pub max_violation_events: usize,
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
        SecurityMonitor {
            cfg,
            monitored,
            phase: Phase::Learning { windows_done: 0, records: Vec::new() },
            current_window_start: None,
            current_records: Vec::new(),
            dropped_behind: 0,
            obs,
            metrics,
            max_violation_events: 64,
        }
    }

    /// True once the baseline is built and enforcement is active.
    pub fn is_enforcing(&self) -> bool {
        matches!(self.phase, Phase::Enforcing(_))
    }

    /// Ingest a batch of records. Returns any events produced by windows
    /// that closed.
    ///
    /// Timestamps may jitter within the open window. A record whose window
    /// is *behind* the open one is dropped — the `WindowedBuilder::add` rule:
    /// re-opening a closed window would emit it twice — and the drops are
    /// reported in one `warn` event when the open window closes.
    pub fn ingest(&mut self, batch: &[ConnSummary]) -> Vec<MonitorEvent> {
        let mut events = Vec::new();
        for r in batch {
            let w = bucket_start(r.ts, self.cfg.window_len);
            match self.current_window_start {
                None => self.current_window_start = Some(w),
                Some(current) if w > current => {
                    self.close_window(current, &mut events);
                    self.metrics.roll_lag.record(r.ts.saturating_sub(w) as f64);
                    self.current_window_start = Some(w);
                }
                Some(current) if w < current => {
                    self.dropped_behind += 1;
                    continue;
                }
                _ => {}
            }
            self.current_records.push(*r);
        }
        events
    }

    /// Force-close the open window (end of stream).
    pub fn flush(&mut self) -> Vec<MonitorEvent> {
        let mut events = Vec::new();
        if let Some(w) = self.current_window_start.take() {
            self.close_window(w, &mut events);
        }
        events
    }

    fn close_window(&mut self, window_start: u64, events: &mut Vec<MonitorEvent>) {
        let records = std::mem::take(&mut self.current_records);
        let dropped = std::mem::take(&mut self.dropped_behind);
        if dropped > 0 && self.obs.logs(Level::Warn) {
            self.obs.event(
                Level::Warn,
                "monitor",
                "late records dropped",
                &[("window_start", window_start.to_string()), ("dropped", dropped.to_string())],
            );
        }
        // The per-window trace span: baseline building and all per-window
        // analysis below nest under it on the run timeline.
        let mut tspan = self.obs.trace_span("monitor_window");
        if tspan.is_enabled() {
            tspan.attr("window_start", &window_start.to_string());
            tspan.attr("records", &records.len().to_string());
        }
        match &mut self.phase {
            Phase::Learning { windows_done, records: learned } => {
                learned.extend_from_slice(&records);
                *windows_done += 1;
                self.metrics.windows_learning.inc();
                if tspan.is_enabled() {
                    tspan.attr("phase", "learning");
                }
                if *windows_done >= self.cfg.learn_windows {
                    let learned = std::mem::take(learned);
                    let done = *windows_done;
                    let baseline = match self.build_baseline(learned, done) {
                        Ok(b) => b,
                        Err((learned, reason)) => {
                            // Degenerate learning data (e.g. an empty or
                            // unscorable first window): keep the records,
                            // stay in learning, retry next boundary.
                            if self.obs.logs(Level::Warn) {
                                self.obs.event(
                                    Level::Warn,
                                    "monitor",
                                    "baseline deferred",
                                    &[("reason", reason)],
                                );
                            }
                            self.phase = Phase::Learning { windows_done: done, records: learned };
                            return;
                        }
                    };
                    self.metrics.baseline_segments.set(baseline.segmentation.len() as f64);
                    self.metrics.baseline_allow_rules.set(baseline.policy.rule_count() as f64);
                    self.metrics.baseline_threshold.set(baseline.threshold);
                    if self.obs.logs(Level::Info) {
                        self.obs.event(
                            Level::Info,
                            "monitor",
                            "baseline ready",
                            &[
                                ("windows", done.to_string()),
                                ("segments", baseline.segmentation.len().to_string()),
                                ("allow_rules", baseline.policy.rule_count().to_string()),
                                ("anomaly_threshold", format!("{:.4}", baseline.threshold)),
                            ],
                        );
                    }
                    events.push(MonitorEvent::BaselineReady {
                        windows: done,
                        segments: baseline.segmentation.len(),
                        allow_rules: baseline.policy.rule_count(),
                        anomaly_threshold: baseline.threshold,
                    });
                    self.phase = Phase::Enforcing(Box::new(baseline));
                }
            }
            Phase::Enforcing(baseline) => {
                // Build this window's collapsed graph.
                let mut b = GraphBuilder::new(Facet::Ip, window_start, self.cfg.window_len)
                    .with_monitored(self.monitored.clone());
                b.add_all(&records);
                let graph = collapse_default(&b.finish());

                // Policy check.
                let mut det =
                    ViolationDetector::new(baseline.segmentation.clone(), baseline.policy.clone());
                let violations = det.check_all(&records);

                // Anomaly score.
                let score = baseline.model.score(&graph).map(|s| s.score).unwrap_or(f64::INFINITY);
                let anomalous = score > baseline.threshold;

                // Structural diff vs the previous window.
                let (new_edges, gone_edges) = match &baseline.previous_window {
                    Some(prev) => {
                        let d = diff(prev, &graph, self.cfg.change_ratio);
                        (d.added_edges.len(), d.removed_edges.len())
                    }
                    None => (0, 0),
                };
                baseline.previous_window = Some(graph);

                self.metrics.windows_enforcing.inc();
                self.metrics.violations.add(violations.len() as u64);
                self.metrics.anomaly_score.record(score);
                if anomalous {
                    self.metrics.anomalous_windows.inc();
                }
                if tspan.is_enabled() {
                    tspan.attr("phase", "enforcing");
                    tspan.attr("violations", &violations.len().to_string());
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
                            ("records", records.len().to_string()),
                            ("violations", violations.len().to_string()),
                            ("anomaly_score", format!("{score:.4}")),
                            ("anomalous", anomalous.to_string()),
                            ("new_edges", new_edges.to_string()),
                            ("gone_edges", gone_edges.to_string()),
                        ],
                    );
                }

                events.push(MonitorEvent::WindowSummary {
                    window_start,
                    records: records.len(),
                    violations: violations.len(),
                    anomaly_score: score,
                    anomalous,
                    new_edges,
                    gone_edges,
                });
                for v in violations.into_iter().take(self.max_violation_events) {
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

    /// Build the enforcement baseline from the learned records. On failure
    /// the records come back to the caller so learning can continue.
    fn build_baseline(
        &self,
        records: Vec<ConnSummary>,
        windows: usize,
    ) -> Result<Baseline, (Vec<ConnSummary>, String)> {
        // Split the learning records by window: the first window fits the
        // pattern model, the rest calibrate the threshold; segmentation and
        // policy learn from everything.
        let mut wb =
            Workbench::new(records.clone(), self.monitored.clone()).with_obs(self.obs.clone());
        let segmentation = wb.segmentation().clone();
        let policy = wb.policy().clone();

        let mut windows_graphs: Vec<CommGraph> = Vec::with_capacity(windows);
        let mut starts: Vec<u64> =
            records.iter().map(|r| bucket_start(r.ts, self.cfg.window_len)).collect();
        starts.sort_unstable();
        starts.dedup();
        for w in starts {
            let mut b = GraphBuilder::new(Facet::Ip, w, self.cfg.window_len)
                .with_monitored(self.monitored.clone());
            b.add_all(records.iter().filter(|r| bucket_start(r.ts, self.cfg.window_len) == w));
            windows_graphs.push(collapse_default(&b.finish()));
        }
        let Some(first) = windows_graphs.first() else {
            return Err((records, "no learning windows carried traffic".into()));
        };
        let model = match PatternModel::fit(first, self.cfg.anomaly_k) {
            Ok(m) => m,
            Err(e) => return Err((records, e.to_string())),
        };
        let threshold =
            match model.calibrate_threshold(&windows_graphs[1..], self.cfg.anomaly_margin) {
                Ok(t) => t,
                Err(e) => return Err((records, e.to_string())),
            };
        Ok(Baseline { segmentation, policy, model, threshold, previous_window: None })
    }
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
            anomaly_margin: 1.5,
            change_ratio: 3.0,
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

        assert!(monitor.is_enforcing());
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
        let learning =
            registry.counter("commgraph_monitor_windows_total", "", &[("phase", "learning")]).get();
        assert_eq!(learning, cfg().learn_windows as u64);
        let enforcing = registry
            .counter("commgraph_monitor_windows_total", "", &[("phase", "enforcing")])
            .get();
        assert_eq!(enforcing, summaries.len() as u64);
        let violations = registry.counter("commgraph_monitor_violations_total", "", &[]).get();
        assert_eq!(violations, summaries.iter().map(|(v, _)| *v as u64).sum::<u64>());
        assert!(violations > 0, "the attack must trip the policy");

        // The anomaly-score histogram saw one sample per enforced window.
        let scores = registry.histogram("commgraph_monitor_anomaly_score", "", &[]);
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
        let g = registry.gauge("commgraph_monitor_baseline_segments", "", &[]);
        assert_eq!(g.get(), segments as f64);
        let t = registry.gauge("commgraph_monitor_baseline_anomaly_threshold", "", &[]);
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

    /// Regression: a straggler from an already-closed window used to close
    /// the open window early and re-open the old one, so a window was
    /// summarised twice and learning counted windows that never happened.
    #[test]
    fn late_record_never_reopens_a_closed_window() {
        let preset = ClusterPreset::MicroserviceBench;
        let mut sim =
            Simulator::new(preset.topology_scaled(0.3), preset.default_sim_config()).unwrap();
        let monitored = monitored_of(&sim);
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut monitor =
            SecurityMonitor::with_obs(cfg(), monitored, obs::Obs::new(registry.clone()));

        // One straggler a window behind, in learning (minute 3's record
        // delivered after minute 12) and in enforcing (22 after 32).
        let mut events = Vec::new();
        let mut held: Option<ConnSummary> = None;
        sim.run(45, |minute, batch| {
            events.extend(monitor.ingest(batch));
            match minute {
                3 | 22 => held = batch.first().copied(),
                12 | 32 => {
                    let late = held.take().expect("held minute carried traffic");
                    let open = bucket_start(batch[0].ts, cfg().window_len);
                    assert!(bucket_start(late.ts, cfg().window_len) < open, "record is behind");
                    events.extend(monitor.ingest(&[late]));
                }
                _ => {}
            }
        });
        events.extend(monitor.flush());

        let baselines: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::BaselineReady { windows, .. } => Some(*windows),
                _ => None,
            })
            .collect();
        assert_eq!(baselines, vec![cfg().learn_windows], "baseline from real windows only");
        let starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::WindowSummary { window_start, .. } => Some(*window_start),
                _ => None,
            })
            .collect();
        assert!(starts.len() >= 2, "enforced windows produce summaries");
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "one summary per window: {starts:?}");
        let learning =
            registry.counter("commgraph_monitor_windows_total", "", &[("phase", "learning")]).get();
        assert_eq!(learning, cfg().learn_windows as u64);
        let log = registry.events();
        let drops: Vec<_> = log.iter().filter(|e| e.message == "late records dropped").collect();
        assert_eq!(drops.len(), 2, "one warn event per window that dropped records");
        assert!(drops.iter().all(|e| e.level == obs::Level::Warn));
    }

    #[test]
    #[should_panic(expected = "learning windows")]
    fn rejects_single_learning_window() {
        let c = MonitorConfig { learn_windows: 1, ..cfg() };
        SecurityMonitor::new(c, HashSet::new());
    }
}
