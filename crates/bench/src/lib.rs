//! Shared scaffolding for the experiment binaries (`exp_*`) and Criterion
//! benches: simulation helpers, artifact output, and a tiny CLI parser.
//!
//! Every experiment writes machine-readable artifacts (JSON/CSV/DOT) under
//! `target/experiments/<exp>/` and prints a human-readable table to stdout.
//! EXPERIMENTS.md records the printed tables next to the paper's numbers.

#![warn(missing_docs)]

use cloudsim::{ClusterPreset, GroundTruth, Simulator};
use flowlog::record::ConnSummary;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// Experiment-binary error handling: print a diagnostic and exit instead
/// of unwinding — these helpers back CLI tools, not library callers.
fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("benchkit: {what}: {e}");
            std::process::exit(2);
        }
    }
}

/// Simulation products an experiment consumes.
pub struct SimRun {
    /// All records of the simulated span.
    pub records: Vec<ConnSummary>,
    /// Simulator ground truth (roles, attacks).
    pub truth: GroundTruth,
    /// Monitored (internal) inventory.
    pub monitored: HashSet<Ipv4Addr>,
    /// Cluster preset simulated.
    pub preset: ClusterPreset,
    /// Scale factor used.
    pub scale: f64,
    /// Minutes simulated.
    pub minutes: u64,
}

/// Simulate `minutes` of a preset at `scale`, collecting everything.
pub fn simulate(preset: ClusterPreset, scale: f64, minutes: u64) -> SimRun {
    let topo = preset.topology_scaled(scale);
    let cfg = preset.paper_sim_config(&topo);
    let mut sim = or_die(Simulator::new(topo, cfg), "preset simulator config rejected");
    let records = sim.collect(minutes);
    let truth = sim.ground_truth().clone();
    let monitored = monitored_of(&truth);
    SimRun { records, truth, monitored, preset, scale, minutes }
}

/// Simulate streaming: hand each minute's batch to `sink` without keeping
/// the full record vector (KQuery-scale runs).
pub fn simulate_streaming(
    preset: ClusterPreset,
    scale: f64,
    minutes: u64,
    mut sink: impl FnMut(u64, &[ConnSummary]),
) -> (GroundTruth, HashSet<Ipv4Addr>) {
    let topo = preset.topology_scaled(scale);
    let cfg = preset.paper_sim_config(&topo);
    let mut sim = or_die(Simulator::new(topo, cfg), "preset simulator config rejected");
    sim.run(minutes, |m, batch| sink(m, batch));
    let truth = sim.ground_truth().clone();
    let monitored = monitored_of(&truth);
    (truth, monitored)
}

/// The monitored inventory: internal (10.0.0.0/8) addresses of the truth.
pub fn monitored_of(truth: &GroundTruth) -> HashSet<Ipv4Addr> {
    truth.ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect()
}

/// Ground-truth role label per node of a graph, for scoring segmentations.
/// Nodes without a role (external/collapsed) share one catch-all label.
pub fn truth_labels(g: &commgraph_graph::CommGraph, truth: &GroundTruth) -> Vec<usize> {
    let catch_all = truth.role_names.len();
    g.nodes()
        .iter()
        .map(|n| match n.ip().and_then(|ip| truth.role_of(ip)) {
            Some(role) => role.0 as usize,
            None => catch_all,
        })
        .collect()
}

/// Build the paper-style collapsed IP graph of a simulated run: hourly
/// window, vantage dedup, per-NIC 0.1% heavy-hitter survival with the
/// monitored inventory protected.
pub fn collapsed_ip_graph(run: &SimRun) -> commgraph_graph::CommGraph {
    use commgraph_graph::collapse::{collapse, NicLocalSurvivors, PAPER_THRESHOLD};
    use commgraph_graph::{Facet, GraphBuilder};
    let mut survivors = NicLocalSurvivors::new(Facet::Ip, PAPER_THRESHOLD);
    // Feed minute batches: records are sorted per minute by the simulator.
    let mut start = 0usize;
    while start < run.records.len() {
        let minute = run.records[start].ts;
        let mut end = start;
        while end < run.records.len() && run.records[end].ts == minute {
            end += 1;
        }
        survivors.add_interval(&run.records[start..end]);
        start = end;
    }
    let mut b =
        GraphBuilder::new(Facet::Ip, 0, run.minutes * 60).with_monitored(run.monitored.clone());
    b.add_all(&run.records);
    let raw = b.finish();
    collapse(&raw, 1.0, |n| {
        survivors.is_survivor(n) || n.ip().map(|ip| run.monitored.contains(&ip)).unwrap_or(false)
    })
}

/// Output directory for one experiment's artifacts.
pub fn out_dir(exp: &str) -> PathBuf {
    let dir = PathBuf::from(env_or("EXP_OUT", "target/experiments")).join(exp);
    or_die(std::fs::create_dir_all(&dir), "create experiment output dir");
    dir
}

/// Write one artifact file, returning its path.
pub fn write_artifact(exp: &str, name: &str, content: &str) -> PathBuf {
    let path = out_dir(exp).join(name);
    or_die(std::fs::write(&path, content), "write experiment artifact");
    path
}

/// `--flag value` CLI lookup with an environment-variable fallback
/// (`EXP_<FLAG>`), then a default.
pub fn arg(flag: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len().saturating_sub(1) {
        if args[i] == format!("--{flag}") {
            return args[i + 1].clone();
        }
    }
    env_or(&format!("EXP_{}", flag.to_uppercase()), default)
}

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

/// Parse an f64 CLI argument.
pub fn arg_f64(flag: &str, default: f64) -> f64 {
    arg(flag, &default.to_string()).parse().unwrap_or(default)
}

/// Parse a u64 CLI argument.
pub fn arg_u64(flag: &str, default: u64) -> u64 {
    arg(flag, &default.to_string()).parse().unwrap_or(default)
}

/// Format a count with thousands separators for table output.
pub fn fmt_count(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}K", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_simulation_produces_records_and_truth() {
        let run = simulate(ClusterPreset::Portal, 0.02, 2);
        assert!(!run.records.is_empty());
        assert!(!run.monitored.is_empty());
        assert!(run.monitored.iter().all(|ip| ip.octets()[0] == 10));
    }

    #[test]
    fn fmt_count_ranges() {
        assert_eq!(fmt_count(12.0), "12");
        assert_eq!(fmt_count(1500.0), "1.5K");
        assert_eq!(fmt_count(2_300_000.0), "2.3M");
    }

    #[test]
    fn truth_labels_cover_all_nodes() {
        let run = simulate(ClusterPreset::MicroserviceBench, 0.2, 2);
        let mut b = commgraph_graph::GraphBuilder::new(commgraph_graph::Facet::Ip, 0, 3600);
        b.add_all(&run.records);
        let g = b.finish();
        let labels = truth_labels(&g, &run.truth);
        assert_eq!(labels.len(), g.node_count());
    }
}
