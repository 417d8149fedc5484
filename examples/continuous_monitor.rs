//! The always-on security loop: learn a baseline from live telemetry, then
//! watch every window for policy violations, anomalies, and structural
//! drift — with a mid-stream breach to catch. The monitor runs traced: the
//! moment the first incident fires (a policy violation or an anomalous
//! window), the flight recorder is dumped so the spans leading up to the
//! alert are on screen — the "what was the pipeline doing right before
//! this?" view an operator wants at page time.
//!
//! ```sh
//! cargo run --release --example continuous_monitor
//! ```

use commgraph::cloudsim::attack::{AttackKind, AttackScenario};
use commgraph::cloudsim::{ClusterPreset, SimConfig, Simulator};
use commgraph::monitor::{MonitorConfig, MonitorEvent, SecurityMonitor};
use commgraph::obs::alert::default_pack;
use commgraph::obs::{
    trace, AlertEngine, Obs, RecordingRule, Registry, Scraper, Tracer, Tsdb, TsdbConfig,
};
use std::sync::Arc;

fn main() {
    let preset = ClusterPreset::MicroserviceBench;
    let topo = preset.topology_scaled(0.5);
    let breached = topo.ip_of(topo.role_named("frontend").expect("role").id, 0).expect("slot 0");

    // Two hours of traffic; an attacker lands in minute 80.
    let sim_cfg = SimConfig {
        attacks: vec![AttackScenario {
            kind: AttackKind::LateralMovement,
            start_min: 80,
            duration_min: 30,
            breached,
            intensity: 6,
        }],
        ..preset.default_sim_config()
    };
    let mut sim = Simulator::new(topo, sim_cfg).expect("preset is valid");
    let monitored =
        sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();

    // 20-minute windows: three to learn, the rest enforced. The monitor is
    // fully instrumented: metrics land in `registry`, window spans in the
    // flight recorder.
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::new(512));
    let obs = Obs::new(registry.clone()).with_tracer(tracer.clone());
    // Metrics history + alerting: each closed window is one logical tick.
    let store = Arc::new(Tsdb::new(TsdbConfig::default()));
    let scraper = Arc::new(Scraper::new(registry, store.clone()));
    // Each scrape also evaluates this recording rule, materialising the
    // per-window violation delta as its own series in the store.
    scraper.add_recording_rule(
        RecordingRule::new(
            "monitor:violations:delta1",
            "delta(commgraph_monitor_violations_total[1])",
        )
        .expect("rule expression parses"),
    );
    let alerts = Arc::new(AlertEngine::new(obs.clone()));
    let mut monitor = SecurityMonitor::with_obs(
        MonitorConfig {
            window_len: 1200,
            learn_windows: 3,
            max_violation_events: 3, // headline examples only
            ..Default::default()
        },
        monitored,
        obs.clone(),
    );

    // The default pack's freshness SLO is sized by expected records per
    // tick; each WindowSummary below advances one tick.
    alerts.add_rules(default_pack(2000.0));
    let mut tick = 0u64;

    println!("streaming two hours of '{}' telemetry through the monitor …\n", preset.name());
    let root = obs.trace_root("monitor_run");
    let mut events = Vec::new();
    let mut recorder_dumped = false;
    sim.run(120, |_, batch| {
        for e in monitor.ingest(batch) {
            if matches!(e, MonitorEvent::WindowSummary { .. }) {
                tick += 1;
                scraper.scrape(tick);
                alerts.evaluate(tick, &store);
            }
            // First incident → dump the flight recorder: the trace of every
            // window closed so far, with the anomaly event on its span.
            let incident = matches!(e, MonitorEvent::PolicyViolation(_))
                || matches!(e, MonitorEvent::WindowSummary { anomalous: true, .. });
            if incident && !recorder_dumped {
                recorder_dumped = true;
                println!("⚠ first incident — dumping the flight recorder:\n");
                print!("{}", trace::render_tree(&tracer.dump()));
                println!();
            }
            events.push(e);
        }
    });
    events.extend(monitor.flush());
    drop(root);

    for e in &events {
        match e {
            MonitorEvent::BaselineReady { windows, segments, allow_rules, anomaly_threshold } => {
                println!(
                    "[baseline] learned from {windows} windows: {segments} µsegments, \
                     {allow_rules} allow rules, anomaly threshold {anomaly_threshold:.2}\n"
                );
            }
            MonitorEvent::WindowSummary {
                window_start,
                records,
                violations,
                anomaly_score,
                anomalous,
                new_edges,
                gone_edges,
            } => {
                println!(
                    "[t+{:>3}m] {:>7} records | {:>5} violations | anomaly {:>5.2}{} | Δedges +{new_edges}/-{gone_edges}",
                    window_start / 60,
                    records,
                    violations,
                    anomaly_score,
                    if *anomalous { "  ⚠ ANOMALY" } else { "" },
                );
            }
            MonitorEvent::PolicyViolation(v) => {
                println!(
                    "         ⚠ {} -> {} port {} ({:?})",
                    v.local_ip, v.remote_ip, v.port, v.verdict
                );
            }
        }
    }
    println!("\nthe attack lands at t+80m: the policy layer flags its probe flows");
    println!("immediately (lateral probes are tiny — far too small to disturb the");
    println!("byte-matrix eigenstructure, so the anomaly score stays flat; bulk");
    println!("exfiltration is what trips that detector — see exp_anomaly).");

    let firing = alerts.firing();
    if firing.is_empty() {
        println!("\nno metric alerts firing after {tick} ticks");
    } else {
        println!("\nmetric alerts firing after {tick} ticks:");
        for a in firing {
            println!("  ⚠ {} [{}] since tick {}", a.rule, a.severity, a.since_tick);
        }
    }

    // Exit report: the questions an on-call engineer asks of the history,
    // phrased as query expressions and evaluated in-process against the
    // scraped TSDB (the HTTP twin of this is /query_range — see the
    // live_dashboard example).
    println!("\n── named queries over the scraped history ──────────────────────");
    let named_queries: [(&str, &str); 3] = [
        ("violations per window", "delta(commgraph_monitor_violations_total[1])"),
        (
            "anomaly score, 3-window max",
            "max_over_time(commgraph_monitor_anomaly_score{field=\"max\"}[3])",
        ),
        ("recorded violation delta", "monitor:violations:delta1"),
    ];
    for (label, expr) in named_queries {
        match commgraph::obs::query::query_range_json(&store, expr, 1, tick, 1) {
            Ok(body) => println!("{label}\n  expr: {expr}\n  {body}"),
            Err(e) => println!("{label}\n  expr: {expr}\n  error: {e}"),
        }
    }
}
