//! Experiment F1 — regenerate Figure 1: the role-segmented K8s PaaS IP graph.
//!
//! One hour of the K8s PaaS cluster, segmented with the paper's method
//! (Jaccard score on neighbor-set overlap, Louvain on the scored clique).
//! Because the simulator knows ground-truth roles, this experiment also
//! reports what the paper could only probe through developer interviews:
//! how *right* the labels are (ARI / NMI / purity), plus the role-count
//! compression the paper predicts ("many fewer roles than resources").
//!
//! Artifacts: DOT rendering with role colors (the figure itself), the role
//! table, and quality metrics.

use algos::metrics::{adjusted_rand_index, cluster_count, normalized_mutual_information, purity};
use algos::roles::{infer_roles, SegmentationMethod};
use benchkit::{arg_f64, arg_u64, collapsed_ip_graph, simulate, truth_labels, write_artifact};
use cloudsim::ClusterPreset;
use serde_json::json;

fn main() {
    let scale = arg_f64("scale", 1.0);
    let minutes = arg_u64("minutes", 60);
    eprintln!("[fig1] simulating K8s PaaS at scale {scale} for {minutes} min …");
    let run = simulate(ClusterPreset::K8sPaas, scale, minutes);
    let g = collapsed_ip_graph(&run);
    eprintln!(
        "[fig1] graph: {} nodes, {} edges; inferring roles …",
        g.node_count(),
        g.edge_count()
    );

    let inference = infer_roles(&g, &SegmentationMethod::paper_default());
    let truth = truth_labels(&g, &run.truth);

    let ari = adjusted_rand_index(&inference.labels, &truth).expect("same length");
    let nmi = normalized_mutual_information(&inference.labels, &truth).expect("same length");
    let pur = purity(&inference.labels, &truth).expect("same length");

    println!("\nFigure 1 — K8s PaaS IP-graph with roles inferred by jaccard+louvain");
    println!("  nodes:            {}", g.node_count());
    println!("  edges:            {}", g.edge_count());
    println!("  inferred roles:   {}", inference.n_roles);
    println!("  true roles:       {}", cluster_count(&truth));
    println!("  resources/role:   {:.1}", g.node_count() as f64 / inference.n_roles.max(1) as f64);
    println!("  ARI vs truth:     {ari:.3}");
    println!("  NMI vs truth:     {nmi:.3}");
    println!("  purity vs truth:  {pur:.3}");
    println!("\npaper: nodes that share a color have the same role and can share a µsegment;");
    println!("       'fundamentally, there are many fewer roles than resources'.");

    // Role table: size of each inferred role with its dominant true role.
    let mut role_sizes: Vec<(usize, usize)> = Vec::new();
    for role in 0..inference.n_roles {
        let members = inference.labels.iter().filter(|&&l| l == role).count();
        role_sizes.push((role, members));
    }
    role_sizes.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\n  top inferred roles by size:");
    for (role, members) in role_sizes.iter().take(10) {
        println!("    role {role:>3}: {members:>4} resources");
    }

    write_artifact("fig1", "k8s_roles.dot", &g.to_dot(Some(&inference.labels)));
    let table: Vec<_> = g
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, n)| {
            json!({
                "node": n.to_string(),
                "inferred_role": inference.labels[i],
                "true_role": truth[i],
            })
        })
        .collect();
    let path = write_artifact(
        "fig1",
        "roles.json",
        &serde_json::to_string_pretty(&json!({
            "method": inference.method,
            "n_roles": inference.n_roles,
            "ari": ari, "nmi": nmi, "purity": pur,
            "clustering_modularity": inference.clustering_modularity,
            "nodes": table,
        }))
        .expect("serializable"),
    );
    eprintln!("[fig1] artifacts in {}", path.with_file_name("").display());
}
