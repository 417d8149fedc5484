//! Experiment F4 — regenerate Figure 4: byte adjacency-matrix heatmaps.
//!
//! For K8s PaaS, µserviceBench, and Portal: one hour's collapsed IP graph
//! rendered as a log-scale byte matrix (rows/columns are IPs in address
//! order, which is role-major). Emits the normalized matrices as CSV plus
//! the two patterns the paper calls out, detected programmatically:
//! **chatty cliques** and **hub-and-spoke** structure.

use algos::stats::{detect_chatty_cliques, detect_hubs};
use benchkit::{arg_f64, arg_u64, collapsed_ip_graph, simulate, write_artifact};
use cloudsim::ClusterPreset;
use linalg::quantize::{log_normalize, to_ascii, to_csv};
use linalg::Matrix;
use serde_json::json;

fn main() {
    let scale = arg_f64("scale", 1.0);
    let minutes = arg_u64("minutes", 60);
    let mut artifacts = Vec::new();
    println!("\nFigure 4 — adjacency matrices of bytes exchanged (log scale)");
    for preset in [ClusterPreset::K8sPaas, ClusterPreset::MicroserviceBench, ClusterPreset::Portal]
    {
        eprintln!("[fig4] simulating {} at scale {scale} for {minutes} min …", preset.name());
        let run = simulate(preset, scale, minutes);
        let g = collapsed_ip_graph(&run);
        let n = g.node_count();
        let raw = Matrix::from_rows(g.byte_matrix(8192).expect("collapsed graphs are small"));
        let norm = log_normalize(&raw, 6.0);
        let nonzero =
            raw.data().iter().filter(|&&v| v > 0.0).count() as f64 / (n * n).max(1) as f64;

        let hubs = detect_hubs(&g, 5.0);
        let cliques = detect_chatty_cliques(&g, 4, 0.5);
        println!(
            "\n  {} — {} x {} matrix, {:.2}% entries non-zero",
            preset.name(),
            n,
            n,
            nonzero * 100.0
        );
        println!(
            "    hub-and-spoke: {} hubs (top: {})",
            hubs.len(),
            hubs.first()
                .map(|h| format!("{} deg {}", h.label, h.degree))
                .unwrap_or_else(|| "-".into())
        );
        println!(
            "    chatty cliques: {} (largest: {} nodes, density {:.2})",
            cliques.len(),
            cliques.first().map(|c| c.members.len()).unwrap_or(0),
            cliques.first().map(|c| c.density).unwrap_or(0.0)
        );

        let slug = preset.name().to_lowercase().replace(' ', "_");
        write_artifact("fig4", &format!("{slug}_matrix.csv"), &to_csv(&norm));
        // Coarse ASCII preview of the banded structure (downsampled).
        let preview = downsample(&norm, 64);
        write_artifact("fig4", &format!("{slug}_preview.txt"), &to_ascii(&preview));
        artifacts.push(json!({
            "cluster": preset.name(),
            "n": n,
            "nonzero_frac": nonzero,
            "hubs": hubs.len(),
            "hub_labels": hubs.iter().take(5).map(|h| h.label.clone()).collect::<Vec<_>>(),
            "chatty_cliques": cliques.len(),
            "largest_clique": cliques.first().map(|c| c.members.len()).unwrap_or(0),
        }));
    }
    println!("\npaper shape: clear banded structure; chatty cliques (blocks) and hub rows/");
    println!("columns (control-plane components: API servers, telemetry sinks, stores).");

    let path = write_artifact(
        "fig4",
        "fig4.json",
        &serde_json::to_string_pretty(&artifacts).expect("serializable"),
    );
    eprintln!("[fig4] artifacts in {}", path.with_file_name("").display());
}

/// Max-pool a normalized matrix down to at most `target` rows/cols so the
/// ASCII preview fits a terminal.
fn downsample(m: &Matrix, target: usize) -> Matrix {
    let n = m.rows();
    if n <= target {
        return m.clone();
    }
    let stride = n.div_ceil(target);
    let out_n = n.div_ceil(stride);
    let mut out = Matrix::zeros(out_n, out_n);
    for i in 0..n {
        for j in 0..n {
            let (oi, oj) = (i / stride, j / stride);
            if m[(i, j)] > out[(oi, oj)] {
                out[(oi, oj)] = m[(i, j)];
            }
        }
    }
    out
}
