//! Experiment F6 — regenerate Figure 6: the byte CCDF ("where to invest
//! more capacity?").
//!
//! For K8s PaaS, Portal, and µserviceBench: the CCDF of bytes exchanged
//! versus the fraction of nodes participating, heaviest nodes first. The
//! paper's point: the curve collapses almost immediately — a few nodes
//! account for most of the traffic — so capacity investment (bigger SKUs,
//! proximity placement) should target that head. Also emits the concrete
//! advice the counterfactual module derives from the same data.

use algos::stats::{byte_ccdf, byte_gini, top_share};
use benchkit::{arg_f64, arg_u64, collapsed_ip_graph, simulate, write_artifact};
use cloudsim::ClusterPreset;
use commgraph::counterfactual::{capacity_plan, flow_sizes, proximity_plan_filtered};
use serde_json::json;

fn main() {
    let scale = arg_f64("scale", 1.0);
    let minutes = arg_u64("minutes", 60);
    println!("\nFigure 6 — CCDF of bytes vs fraction of participating nodes");
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "Cluster", "nodes", "top1% share", "top5% share", "top10% share", "gini"
    );
    let mut artifacts = Vec::new();
    for preset in [ClusterPreset::K8sPaas, ClusterPreset::Portal, ClusterPreset::MicroserviceBench]
    {
        eprintln!("[fig6] simulating {} at scale {scale} for {minutes} min …", preset.name());
        let run = simulate(preset, scale, minutes);
        let g = collapsed_ip_graph(&run);
        let ccdf = byte_ccdf(&g);
        let (t1, t5, t10) = (top_share(&g, 0.01), top_share(&g, 0.05), top_share(&g, 0.10));
        let gini = byte_gini(&g);
        println!(
            "{:<16} {:>8} {:>11.1}% {:>11.1}% {:>11.1}% {:>8.3}",
            preset.name(),
            g.node_count(),
            t1 * 100.0,
            t5 * 100.0,
            t10 * 100.0,
            gini
        );

        let slug = preset.name().to_lowercase().replace(' ', "_");
        let csv: String = std::iter::once("frac_nodes,ccdf".to_string())
            .chain(ccdf.iter().map(|p| format!("{:.6},{:.6e}", p.frac_nodes, p.ccdf)))
            .collect::<Vec<_>>()
            .join("\n");
        write_artifact("fig6", &format!("{slug}_ccdf.csv"), &csv);

        // The §2.3 advisors on the same hour.
        let cap = capacity_plan(&g, 0.02);
        let prox = proximity_plan_filtered(&g, 5, |n| {
            n.ip().map(|ip| run.monitored.contains(&ip)).unwrap_or(false)
        });
        let sizes = flow_sizes(&run.records);
        artifacts.push(json!({
            "cluster": preset.name(),
            "nodes": g.node_count(),
            "top_1pct_share": t1,
            "top_5pct_share": t5,
            "top_10pct_share": t10,
            "gini": gini,
            "capacity_advice": cap,
            "proximity_advice": prox,
            "flow_size_quantiles": sizes.quantiles,
        }));
    }
    println!("\npaper shape: steep CCDF drop — a few nodes account for most of the traffic;");
    println!("the curves let an admin decide where to change VM SKUs or co-locate peers.");

    let path = write_artifact(
        "fig6",
        "fig6.json",
        &serde_json::to_string_pretty(&artifacts).expect("serializable"),
    );
    eprintln!("[fig6] artifacts in {}", path.with_file_name("").display());
}
