//! Experiment F5 — regenerate Figure 5: the K8s PaaS timelapse.
//!
//! Simulates four consecutive hours of the K8s PaaS cluster (hour 0 is the
//! Figure 4(a) hour; hours +1..+3 are the timelapse) under diurnal load plus
//! mid-run churn, and quantifies what the figure shows visually: most
//! patterns persist hour over hour (high edge-set Jaccard), while bands
//! shrink/grow in intensity (volume changes on persisting edges) and a few
//! appear or vanish (structural deltas).

use benchkit::{arg_f64, arg_u64, write_artifact};
use cloudsim::churn::ChurnPlan;
use cloudsim::roles::RoleId;
use cloudsim::{ClusterPreset, Simulator};
use commgraph::pipeline::{Pipeline, PipelineConfig};
use linalg::quantize::{log_normalize, to_csv};
use linalg::Matrix;
use serde_json::json;

fn main() {
    let scale = arg_f64("scale", 1.0);
    let hours = arg_u64("hours", 4);
    let preset = ClusterPreset::K8sPaas;
    let topo = preset.topology_scaled(scale);
    let mut cfg = preset.paper_sim_config(&topo);
    // Mid-run churn: one tenant's web tier scales out in hour 2, another's
    // api tier scales in during hour 3 — the "bands appear/shrink" effects.
    let scaled = |n: usize| ((n as f64 * scale).round() as i32).max(1);
    let role = |name: &str| -> RoleId { topo.role_named(name).expect("preset role exists").id };
    cfg.churn = ChurnPlan::none().with(70, role("tenant0-web"), scaled(8)).with(
        130,
        role("tenant1-api"),
        -scaled(6),
    );
    eprintln!("[fig5] simulating {hours} hours of K8s PaaS at scale {scale} …");
    let mut sim = Simulator::new(topo, cfg).expect("preset is valid");

    let monitored: std::collections::HashSet<std::net::Ipv4Addr> =
        sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();
    let mut pipeline = Pipeline::new(PipelineConfig {
        window_len: 3600,
        monitored: Some(monitored),
        ..Default::default()
    });
    sim.run(hours * 60, |_, batch| pipeline.ingest(batch));
    let out = pipeline.finish().expect("windows arrive in order");
    let seq = out.sequence;

    println!("\nFigure 5 — hourly timelapse of the K8s PaaS byte matrix");
    println!(
        "{:<8} {:>8} {:>8} {:>14} {:>14} {:>12} {:>12}",
        "hour", "nodes", "edges", "node-jaccard", "edge-jaccard", "new edges", "gone edges"
    );
    let mut rows = Vec::new();
    for (i, g) in seq.graphs().iter().enumerate() {
        let (nj, ej, added, removed) = if i == 0 {
            (1.0, 1.0, 0, 0)
        } else {
            let d = seq.diff_adjacent(i - 1, 2.0).expect("adjacent windows exist");
            (d.node_jaccard, d.edge_jaccard, d.added_edges.len(), d.removed_edges.len())
        };
        println!(
            "{:<8} {:>8} {:>8} {:>14.3} {:>14.3} {:>12} {:>12}",
            format!("+{i}"),
            g.node_count(),
            g.edge_count(),
            nj,
            ej,
            added,
            removed
        );
        // Persist each hour's matrix for plotting, node order fixed to hour 0
        // membership is not enforced; CSVs are per-hour snapshots.
        let raw = Matrix::from_rows(g.byte_matrix(8192).expect("collapsed-scale graphs"));
        write_artifact("fig5", &format!("hour_{i}.csv"), &to_csv(&log_normalize(&raw, 6.0)));
        rows.push(json!({
            "hour": i,
            "nodes": g.node_count(),
            "edges": g.edge_count(),
            "node_jaccard_vs_prev": nj,
            "edge_jaccard_vs_prev": ej,
            "added_edges": added,
            "removed_edges": removed,
        }));
    }
    let p = seq.persistence();
    println!("\n  mean adjacent edge-jaccard: {:.3}", p.mean_edge_jaccard);
    if let Some(t) = p.most_changed_transition {
        println!("  most-changed transition:    hour +{} → +{}", t, t + 1);
    }
    println!("\npaper shape: 'while there are some changes — some bands shrink or grow in");
    println!("intensity and a few appear only during some hours — many patterns are");
    println!("consistent' ⇒ expect high (but not perfect) hour-over-hour similarity.");

    let path = write_artifact(
        "fig5",
        "fig5.json",
        &serde_json::to_string_pretty(&json!({
            "hours": rows,
            "mean_edge_jaccard": p.mean_edge_jaccard,
            "most_changed_transition": p.most_changed_transition,
        }))
        .expect("serializable"),
    );
    eprintln!("[fig5] artifacts in {}", path.with_file_name("").display());
}
