//! Structural node features for feature-based role inference.
//!
//! The paper points at the graph-mining role-inference literature (RolX
//! \[51\]) as the natural frame for auto-segmentation. RolX extracts
//! per-node structural features and factorizes them; this module provides
//! the feature-extraction half over communication graphs — degree, traffic
//! volumes, direction balance, egonet shape, neighbor profile — normalized
//! for clustering.

use commgraph_graph::CommGraph;

/// Names of the features [`node_features`] emits, in column order.
pub(crate) const FEATURE_NAMES: [&str; 8] = [
    "degree",
    "log_bytes",
    "log_conns",
    "out_byte_fraction",
    "mean_neighbor_degree",
    "egonet_density",
    "bytes_per_conn",
    "top_edge_share",
];

/// Per-node structural feature matrix (`n × 8`), z-score normalized per
/// column so no single feature dominates k-means distances.
pub(crate) fn node_features(g: &CommGraph) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let mut raw = vec![vec![0.0f64; FEATURE_NAMES.len()]; n];
    for i in 0..n as u32 {
        let ns = g.node_stats(i);
        let nbrs = g.neighbors(i);
        let degree = ns.degree as f64;

        // Direction balance: bytes sent outward / total.
        let out_bytes: u64 = nbrs.iter().map(|e| e.stats.bytes_fwd).sum();
        let out_frac = if ns.bytes == 0 { 0.5 } else { out_bytes as f64 / ns.bytes as f64 };

        // Neighbor degree profile.
        let mean_nbr_degree = if nbrs.is_empty() {
            0.0
        } else {
            nbrs.iter().map(|e| g.node_stats(e.node).degree as f64).sum::<f64>() / nbrs.len() as f64
        };

        // Egonet density: fraction of neighbor pairs that are themselves
        // connected (the node's local clustering coefficient).
        let egonet_density = {
            let ids: Vec<u32> = nbrs.iter().map(|e| e.node).filter(|v| *v != i).collect();
            let d = ids.len();
            if d < 2 {
                0.0
            } else {
                let mut linked = 0usize;
                for (a_idx, &a) in ids.iter().enumerate() {
                    for &b in &ids[a_idx + 1..] {
                        if g.edge(a, b).is_some() {
                            linked += 1;
                        }
                    }
                }
                linked as f64 / (d * (d - 1) / 2) as f64
            }
        };

        // Heaviest single edge as a share of the node's traffic.
        let top_edge = nbrs.iter().map(|e| e.stats.bytes()).max().unwrap_or(0);
        let top_share = if ns.bytes == 0 { 0.0 } else { top_edge as f64 / ns.bytes as f64 };

        raw[i as usize] = vec![
            degree,
            (1.0 + ns.bytes as f64).ln(),
            (1.0 + ns.conns as f64).ln(),
            out_frac,
            mean_nbr_degree,
            egonet_density,
            if ns.conns == 0 { 0.0 } else { (ns.bytes as f64 / ns.conns as f64).ln_1p() },
            top_share,
        ];
    }
    zscore_columns(&mut raw);
    raw
}

/// In-place z-score normalization per column; constant columns become 0.
fn zscore_columns(rows: &mut [Vec<f64>]) {
    if rows.is_empty() {
        return;
    }
    let cols = rows[0].len();
    let n = rows.len() as f64;
    for c in 0..cols {
        let mean = rows.iter().map(|r| r[c]).sum::<f64>() / n;
        let var = rows.iter().map(|r| (r[c] - mean).powi(2)).sum::<f64>() / n;
        let sd = var.sqrt();
        for r in rows.iter_mut() {
            r[c] = if sd > 1e-12 { (r[c] - mean) / sd } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph_graph::{EdgeStats, NodeId};
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    fn node(d: u8) -> NodeId {
        NodeId::Ip(Ipv4Addr::new(10, 0, 0, d))
    }

    /// A hub (1) with 6 spokes, plus a triangle (10, 11, 12).
    fn hub_and_triangle() -> CommGraph {
        let mut edges = HashMap::new();
        for d in 2..=7u8 {
            edges.insert(
                (node(1), node(d)),
                EdgeStats { bytes_fwd: 1_000, bytes_rev: 100_000, conns: 10, ..Default::default() },
            );
        }
        for (a, b) in [(10u8, 11u8), (11, 12), (10, 12)] {
            edges.insert(
                (node(a), node(b)),
                EdgeStats { bytes_fwd: 50_000, bytes_rev: 50_000, conns: 5, ..Default::default() },
            );
        }
        CommGraph::from_edge_map("ip", 0, 3600, edges)
    }

    #[test]
    fn feature_matrix_shape() {
        let g = hub_and_triangle();
        let f = node_features(&g);
        assert_eq!(f.len(), g.node_count());
        assert!(f.iter().all(|row| row.len() == FEATURE_NAMES.len()));
        assert!(f.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn columns_are_normalized() {
        let g = hub_and_triangle();
        let f = node_features(&g);
        for c in 0..FEATURE_NAMES.len() {
            let mean: f64 = f.iter().map(|r| r[c]).sum::<f64>() / f.len() as f64;
            assert!(mean.abs() < 1e-9, "column {c} mean {mean}");
        }
    }

    #[test]
    fn hub_differs_from_spokes_spokes_match_each_other() {
        let g = hub_and_triangle();
        let f = node_features(&g);
        let idx = |d: u8| g.index_of(&node(d)).expect("node exists") as usize;
        let dist = |a: usize, b: usize| -> f64 {
            f[a].iter().zip(&f[b]).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt()
        };
        let spoke_spoke = dist(idx(2), idx(3));
        let spoke_hub = dist(idx(2), idx(1));
        assert!(
            spoke_spoke < spoke_hub * 0.3,
            "replicas must be near-identical: spoke-spoke {spoke_spoke} vs spoke-hub {spoke_hub}"
        );
    }

    #[test]
    fn triangle_nodes_have_dense_egonets() {
        let g = hub_and_triangle();
        let f = node_features(&g);
        let ego_col = 5;
        let idx = |d: u8| g.index_of(&node(d)).expect("node exists") as usize;
        // Triangle members: egonet density 1.0 (normalized above hub/spokes).
        assert!(
            f[idx(10)][ego_col] > f[idx(1)][ego_col],
            "triangle member must out-density the hub"
        );
    }

    #[test]
    fn empty_graph() {
        let g = CommGraph::from_edge_map("ip", 0, 60, HashMap::new());
        assert!(node_features(&g).is_empty());
    }
}
