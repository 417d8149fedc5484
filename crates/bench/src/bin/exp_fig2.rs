//! Experiment F2 — regenerate Figure 2: unsegmented IP graphs, all clusters.
//!
//! Builds the hourly collapsed IP graph of every reference cluster and
//! emits structural profiles plus DOT renderings. The point of the figure:
//! raw communication graphs are visually and structurally very different
//! across deployments (sparse star for Portal, dense mesh for
//! µserviceBench, hub-and-spoke plus tenant stacks for K8s PaaS, a giant
//! shuffle clique for KQuery) — and none of them is segmentable by eye.

use benchkit::{arg_f64, arg_u64, collapsed_ip_graph, simulate, write_artifact};
use cloudsim::ClusterPreset;
use serde_json::json;

fn main() {
    // Fig 2 renders all four clusters; KQuery at reduced scale by default so
    // the DOT file stays plottable (override with --kquery-scale 1).
    let scale = arg_f64("scale", 1.0);
    let kquery_scale = arg_f64("kquery-scale", 0.1);
    let minutes = arg_u64("minutes", 60);

    println!("\nFigure 2 — unsegmented IP-graphs of the four clusters");
    println!(
        "{:<16} {:>8} {:>9} {:>12} {:>12} {:>14}",
        "Cluster", "nodes", "edges", "mean degree", "max degree", "density"
    );
    let mut artifacts = Vec::new();
    for preset in ClusterPreset::all() {
        let s = if preset == ClusterPreset::KQuery { kquery_scale } else { scale };
        eprintln!("[fig2] simulating {} at scale {s} for {minutes} min …", preset.name());
        let run = simulate(preset, s, minutes);
        let g = collapsed_ip_graph(&run);
        let n = g.node_count();
        let degrees: Vec<u32> = (0..n as u32).map(|i| g.node_stats(i).degree).collect();
        let mean_deg = degrees.iter().map(|&d| d as f64).sum::<f64>() / n.max(1) as f64;
        let max_deg = degrees.iter().copied().max().unwrap_or(0);
        let density =
            if n > 1 { 2.0 * g.edge_count() as f64 / (n as f64 * (n as f64 - 1.0)) } else { 0.0 };
        println!(
            "{:<16} {:>8} {:>9} {:>12.1} {:>12} {:>14.5}",
            preset.name(),
            n,
            g.edge_count(),
            mean_deg,
            max_deg,
            density
        );
        let slug = preset.name().to_lowercase().replace(' ', "_");
        write_artifact("fig2", &format!("{slug}.dot"), &g.to_dot(None));
        write_artifact(
            "fig2",
            &format!("{slug}.json"),
            &serde_json::to_string_pretty(&g.summary_json(15)).expect("serializable"),
        );
        artifacts.push(json!({
            "cluster": preset.name(),
            "scale": s,
            "nodes": n,
            "edges": g.edge_count(),
            "mean_degree": mean_deg,
            "max_degree": max_deg,
            "density": density,
        }));
    }
    println!("\npaper shape: Portal near-star (clients→4 servers); uServiceBench dense mesh");
    println!("(edges >> nodes); K8s PaaS hubs + tenant stacks; KQuery one huge clique.");

    let path = write_artifact(
        "fig2",
        "fig2.json",
        &serde_json::to_string_pretty(&artifacts).expect("serializable"),
    );
    eprintln!("[fig2] artifacts in {}", path.with_file_name("").display());
}
