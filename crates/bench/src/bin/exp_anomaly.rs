//! Experiment E-ANOM — §2.2's open question, answered with the tools the
//! paper already has: can the summarization model double as an anomaly
//! detector?
//!
//! Fits the PCA pattern model on one clean hour of K8s PaaS (heavy-hitter
//! collapsed, so ephemeral light edges don't masquerade as anomalies),
//! calibrates the detection threshold on two more clean hours, then scores:
//! a clean holdout hour (control), a flash-crowd hour (benign volume change
//! — must NOT fire), and an hour with lateral movement + exfiltration
//! (structural change — MUST fire). Exits 1 unless all three verdicts hold.

use benchkit::{arg_f64, arg_u64, write_artifact};
use cloudsim::attack::{AttackKind, AttackScenario};
use cloudsim::load::{LoadSchedule, LoadShape};
use cloudsim::{ClusterPreset, SimConfig, Simulator};
use commgraph::anomaly::PatternModel;
use commgraph::pipeline::{Pipeline, PipelineConfig};
use commgraph_graph::collapse::collapse_default;
use commgraph_graph::{CommGraph, Facet};
use serde_json::json;
use std::collections::HashSet;
use std::net::Ipv4Addr;

fn hourly_graphs(preset: ClusterPreset, scale: f64, cfg: SimConfig, hours: u64) -> Vec<CommGraph> {
    let topo = preset.topology_scaled(scale);
    let mut sim = Simulator::new(topo, cfg).expect("preset valid");
    let monitored: HashSet<Ipv4Addr> =
        sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();
    let mut pipeline = Pipeline::new(PipelineConfig {
        facet: Facet::Ip,
        window_len: 3600,
        monitored: Some(monitored),
        ..Default::default()
    });
    sim.run(hours * 60, |_, batch| pipeline.ingest(batch));
    // Collapse each window: the pattern model should learn the stable heavy
    // structure, not the long tail of ephemeral light edges.
    pipeline
        .finish()
        .expect("ordered windows")
        .sequence
        .graphs()
        .iter()
        .map(collapse_default)
        .collect()
}

fn main() {
    let scale = arg_f64("scale", 0.5);
    let k = arg_u64("k", 25) as usize;
    let preset = ClusterPreset::K8sPaas;
    let base_cfg = preset.default_sim_config();

    eprintln!("[anomaly] simulating 4 clean hours …");
    let clean = hourly_graphs(preset, scale, base_cfg.clone(), 4);
    eprintln!("[anomaly] fitting the pattern model on hour 0 (k = {k}) …");
    let model = PatternModel::fit(&clean[0], k).expect("clean baseline fits");
    let threshold = model.calibrate_threshold(&clean[1..3], 1.5).expect("clean hours are scorable");
    eprintln!("[anomaly] threshold calibrated on hours 1-2: {threshold:.2}");

    eprintln!("[anomaly] simulating a flash-crowd hour …");
    let crowd_cfg = SimConfig {
        load: LoadSchedule::steady().with(LoadShape::Step { at_min: 0, factor: 3.0 }),
        ..base_cfg.clone()
    };
    let crowd = hourly_graphs(preset, scale, crowd_cfg, 1);

    eprintln!("[anomaly] simulating an attack hour …");
    let topo = preset.topology_scaled(scale);
    let breached = topo.ip_of(topo.role_named("tenant0-web").expect("role").id, 0).expect("slot 0");
    let attack_cfg = SimConfig {
        attacks: vec![
            AttackScenario {
                kind: AttackKind::LateralMovement,
                start_min: 5,
                duration_min: 50,
                breached,
                intensity: 8,
            },
            AttackScenario {
                kind: AttackKind::Exfiltration,
                start_min: 15,
                duration_min: 40,
                breached,
                intensity: 60_000_000,
            },
        ],
        ..base_cfg
    };
    let attacked = hourly_graphs(preset, scale, attack_cfg, 1);

    println!("\nE-ANOM — PCA pattern model as an anomaly detector (k = {k})");
    println!("  baseline self-residual (noise floor): {:.4}", model.baseline_residual);
    println!("  threshold (calibrated on 2 clean hours x 1.5 margin): {threshold:.2}");
    println!(
        "\n{:<26} {:>10} {:>8} {:>14} {:>9}",
        "window", "residual", "score", "novel bytes", "verdict"
    );
    let mut rows = Vec::new();
    let mut print_row = |label: &str, g: &CommGraph, expect_anomalous: bool| {
        let s = model.score(g).expect("scorable window");
        let anomalous = s.score > threshold || s.novel_node_frac > 0.05;
        println!(
            "{:<26} {:>10.4} {:>8.2} {:>13.1}% {:>9}",
            label,
            s.residual,
            s.score,
            s.novel_node_frac * 100.0,
            if anomalous { "ANOMALY" } else { "ok" }
        );
        rows.push(json!({
            "window": label,
            "residual": s.residual,
            "score": s.score,
            "novel_node_frac": s.novel_node_frac,
            "anomalous": anomalous,
            "expected_anomalous": expect_anomalous,
        }));
        anomalous == expect_anomalous
    };
    let mut correct = 0;
    correct += print_row("clean holdout (hour +3)", &clean[3], false) as u32;
    correct += print_row("flash crowd (3x load)", &crowd[0], false) as u32;
    correct += print_row("lateral movement + exfil", &attacked[0], true) as u32;
    println!("\n  {correct}/3 windows classified as expected (threshold {threshold:.2})");
    println!("\npaper: 'a model that can capture the key patterns may also be able to");
    println!("identify when the patterns change' — volume changes ride the learned");
    println!("structure; structural attacks land in the orthogonal complement.");

    let path = write_artifact(
        "anomaly",
        "anomaly.json",
        &serde_json::to_string_pretty(&json!({
            "k": k,
            "baseline_residual": model.baseline_residual,
            "threshold": threshold,
            "windows": rows,
        }))
        .expect("serializable"),
    );
    eprintln!("[anomaly] artifacts in {}", path.with_file_name("").display());
    if correct != 3 {
        eprintln!("[anomaly] FAILED: only {correct}/3 verdicts hold");
        std::process::exit(1);
    }
}
