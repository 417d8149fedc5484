//! Experiment E-PCA — §2.2's succinct-summaries result.
//!
//! "In the K8s PaaS dataset, using just k = 25 eigen vectors (n > 500 in
//! this case) leads to a less than 0.05 error" — and footnote 6: "similar
//! results hold when using independent components (FastICA) instead."
//!
//! Sweeps the PCA reconstruction error over k on the hourly K8s PaaS byte
//! matrix, reports the smallest k reaching 5% error, cross-checks with
//! FastICA, and contrasts with a randomly rewired matrix of the same byte
//! mass (which is NOT low-rank — showing the structure is real, not an
//! artifact of sparsity).

use benchkit::{arg_f64, arg_u64, collapsed_ip_graph, simulate, write_artifact};
use cloudsim::ClusterPreset;
use linalg::ica::fast_ica;
use linalg::pca::{pca_sweep, recon_err};
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde_json::json;

fn main() {
    let scale = arg_f64("scale", 1.0);
    let minutes = arg_u64("minutes", 60);
    eprintln!("[pca] simulating K8s PaaS at scale {scale} for {minutes} min …");
    let run = simulate(ClusterPreset::K8sPaas, scale, minutes);
    let g = collapsed_ip_graph(&run);
    let n = g.node_count();
    let m = Matrix::from_rows(g.byte_matrix(8192).expect("collapsed graph is dense-able"));
    eprintln!("[pca] decomposing the {n} x {n} byte matrix …");

    let ks: Vec<usize> = vec![1, 2, 5, 10, 15, 20, 25, 30, 40, 50, 75, 100, 150, 200];
    let k_max = ks.iter().copied().max().unwrap_or(0).min(n);
    // The sweep computes only the k_max leading eigenpairs; the solver
    // counts its Lanczos steps (the Krylov dimension) in the global registry.
    let registry = std::sync::Arc::new(obs::Registry::new());
    obs::install_global(registry.clone());
    let sweep = pca_sweep(&m, &ks).expect("symmetric byte matrix decomposes");
    // Zero steps: 2·k_max ≥ n, so the sweep took the full Jacobi solve.
    let krylov_dim = registry.counter(&obs::names::LANCZOS_STEPS_TOTAL, []).get();
    let solver = if krylov_dim > 0 { "lanczos_top_k" } else { "jacobi" };
    eprintln!("[pca] top-{k_max} eigenpairs by {solver}, Krylov dimension {krylov_dim}");

    println!("\nE-PCA — low-rank reconstruction of the K8s PaaS byte matrix (n = {n})");
    println!("{:>6} {:>12}", "k", "ReconErr");
    for e in &sweep.errors {
        let marker = if e.k == 25 { "  ← paper's k" } else { "" };
        println!("{:>6} {:>12.4}{}", e.k, e.err, marker);
    }
    match sweep.k_for_5_percent {
        Some(k) => println!("\n  smallest k with error < 0.05: {k}"),
        None => println!("\n  error never reaches 0.05 for k ≤ {k_max}"),
    }
    let err25 = sweep.errors.iter().find(|e| e.k == 25).map(|e| e.err);
    if let Some(err) = err25 {
        println!(
            "  paper: k = 25 of n > 500 gives error < 0.05 — measured {err:.4} ({})",
            if err < 0.05 { "REPRODUCED" } else { "NOT reproduced" }
        );
    }

    // FastICA cross-check (footnote 6) at the paper's k.
    eprintln!("[pca] FastICA cross-check …");
    let ica_err = fast_ica(&m, 25.min(n), 200)
        .and_then(|d| d.reconstruct())
        .and_then(|r| recon_err(&m, &r))
        .expect("ICA on the byte matrix");
    println!("  FastICA, 25 components: error {ica_err:.4} (footnote 6: 'similar results')");

    // Null model: same total mass sprayed over random node pairs.
    eprintln!("[pca] random null model …");
    let total_bytes = m.abs_sum() / 2.0;
    let mut rng = StdRng::seed_from_u64(42);
    let mut null = Matrix::zeros(n, n);
    let edges = g.edge_count();
    for _ in 0..edges {
        let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
        if i == j {
            continue;
        }
        let w = total_bytes / edges as f64;
        null[(i, j)] += w;
        null[(j, i)] += w;
    }
    let null_sweep = pca_sweep(&null, &[25]).expect("null matrix decomposes");
    println!(
        "  random null model at k = 25: error {:.4} — structure, not sparsity, is low-rank",
        null_sweep.errors[0].err
    );

    write_artifact(
        "pca",
        "pca.json",
        &serde_json::to_string_pretty(&json!({
            "n": n,
            "solver": solver,
            "krylov_dim": krylov_dim,
            "errors": sweep.errors,
            "k_for_5_percent": sweep.k_for_5_percent,
            "err_at_25": err25,
            "fastica_err_at_25": ica_err,
            "null_model_err_at_25": null_sweep.errors[0].err,
        }))
        .expect("serializable"),
    );
    eprintln!("[pca] artifacts in target/experiments/pca/");
}
