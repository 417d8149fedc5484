//! Traffic-distribution statistics and pattern detection.
//!
//! Figure 6 of the paper plots the CCDF of bytes against the fraction of
//! nodes participating, showing that a few nodes account for most traffic —
//! the "where to invest capacity" analysis. §2.2 calls out two visual
//! patterns in adjacency matrices: chatty cliques and hub-and-spoke. This
//! module computes all three.

use commgraph_graph::CommGraph;
use serde::Serialize;

/// One point of the Figure 6 curve.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CcdfPoint {
    /// Fraction of nodes considered (heaviest first), in `(0, 1]`.
    pub frac_nodes: f64,
    /// Fraction of total bytes *not yet* covered by those nodes (CCDF).
    pub ccdf: f64,
}

/// Byte CCDF over nodes, heaviest-first (Figure 6).
///
/// Point *i* says: the top `frac_nodes` of nodes carry all but `ccdf` of the
/// traffic. A steep initial drop = heavy concentration.
pub fn byte_ccdf(g: &CommGraph) -> Vec<CcdfPoint> {
    let order = g.nodes_by_bytes();
    let total: f64 = order.iter().map(|&i| g.node_stats(i).bytes as f64).sum();
    let n = order.len();
    if n == 0 || total == 0.0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n);
    let mut cum = 0.0;
    for (rank, &idx) in order.iter().enumerate() {
        cum += g.node_stats(idx).bytes as f64;
        out.push(CcdfPoint {
            frac_nodes: (rank + 1) as f64 / n as f64,
            ccdf: ((total - cum) / total).max(0.0),
        });
    }
    out
}

/// Share of total byte volume carried by the heaviest `frac` of nodes.
pub fn top_share(g: &CommGraph, frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&frac), "frac must be in [0, 1]");
    let order = g.nodes_by_bytes();
    let total: f64 = order.iter().map(|&i| g.node_stats(i).bytes as f64).sum();
    if total == 0.0 {
        return 0.0;
    }
    let k = ((order.len() as f64 * frac).ceil() as usize).min(order.len());
    let covered: f64 = order[..k].iter().map(|&i| g.node_stats(i).bytes as f64).sum();
    covered / total
}

/// Gini coefficient of per-node byte totals: 0 = perfectly even,
/// → 1 = extreme concentration.
pub fn byte_gini(g: &CommGraph) -> f64 {
    let mut v: Vec<f64> =
        (0..g.node_count() as u32).map(|i| g.node_stats(i).bytes as f64).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let total: f64 = v.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v.iter().enumerate().map(|(i, x)| (i as f64 + 1.0) * x).sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// A detected hub: a node whose degree dwarfs the graph average.
#[derive(Debug, Clone, Serialize)]
pub struct Hub {
    /// Dense node index.
    pub(crate) node: u32,
    /// Display string of the node id.
    pub label: String,
    /// Node degree.
    pub degree: u32,
    /// Node byte total.
    pub(crate) bytes: u64,
}

/// Find hub-and-spoke centers: nodes with degree ≥ `factor` × mean degree
/// (and at least 4). Hubs in cloud graphs are control-plane components —
/// API servers, job managers, telemetry sinks.
pub fn detect_hubs(g: &CommGraph, factor: f64) -> Vec<Hub> {
    assert!(factor > 0.0, "factor must be positive");
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mean_degree: f64 =
        (0..n as u32).map(|i| g.node_stats(i).degree as f64).sum::<f64>() / n as f64;
    let threshold = (mean_degree * factor).max(4.0);
    let mut hubs: Vec<Hub> = (0..n as u32)
        .filter(|&i| g.node_stats(i).degree as f64 >= threshold)
        .map(|i| Hub {
            node: i,
            label: g.node(i).to_string(),
            degree: g.node_stats(i).degree,
            bytes: g.node_stats(i).bytes,
        })
        .collect();
    hubs.sort_by_key(|h| std::cmp::Reverse(h.degree));
    hubs
}

/// A detected chatty clique: a group of nodes with high internal edge
/// density and heavy internal traffic.
#[derive(Debug, Clone, Serialize)]
pub struct ChattyClique {
    /// Dense node indices of the members.
    pub members: Vec<u32>,
    /// Fraction of possible internal edges present, in `(0, 1]`.
    pub density: f64,
    /// Bytes on internal edges.
    pub(crate) internal_bytes: u64,
}

/// Find chatty cliques: byte-weighted Louvain communities of ≥ `min_size`
/// nodes whose internal edge density is ≥ `min_density`.
pub fn detect_chatty_cliques(
    g: &CommGraph,
    min_size: usize,
    min_density: f64,
) -> Vec<ChattyClique> {
    use crate::louvain::louvain;
    use crate::wgraph::WeightedGraph;
    assert!(min_size >= 2, "a clique needs at least two members");
    let w = WeightedGraph::from_comm_graph(g, |e| e.bytes() as f64);
    let part = louvain(&w);
    let n_comm = part.labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); n_comm];
    for (i, &c) in part.labels.iter().enumerate() {
        groups[c].push(i as u32);
    }
    let mut out = Vec::new();
    for members in groups {
        if members.len() < min_size {
            continue;
        }
        let set: std::collections::HashSet<u32> = members.iter().copied().collect();
        let mut internal_edges = 0usize;
        let mut internal_bytes = 0u64;
        for &u in &members {
            for e in g.neighbors(u) {
                if e.node > u && set.contains(&e.node) {
                    internal_edges += 1;
                    internal_bytes += e.stats.bytes();
                }
            }
        }
        let possible = members.len() * (members.len() - 1) / 2;
        let density = internal_edges as f64 / possible as f64;
        if density >= min_density {
            out.push(ChattyClique { members, density, internal_bytes });
        }
    }
    out.sort_by_key(|c| std::cmp::Reverse(c.internal_bytes));
    out
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

    fn stats(bytes: u64) -> EdgeStats {
        EdgeStats { bytes_fwd: bytes, bytes_rev: 0, pkts_fwd: bytes / 1000, pkts_rev: 0, conns: 1 }
    }

    /// One elephant pair + many mouse pairs.
    fn skewed() -> CommGraph {
        let mut edges = HashMap::new();
        edges.insert((node(1), node(2)), stats(1_000_000));
        for d in 10..30u8 {
            edges.insert((node(d), node(d + 50)), stats(100));
        }
        CommGraph::from_edge_map("ip", 0, 3600, edges)
    }

    #[test]
    fn ccdf_is_monotone_nonincreasing_and_ends_at_zero() {
        let c = byte_ccdf(&skewed());
        for w in c.windows(2) {
            assert!(w[1].ccdf <= w[0].ccdf + 1e-12);
            assert!(w[1].frac_nodes > w[0].frac_nodes);
        }
        assert!(c.last().unwrap().ccdf.abs() < 1e-12);
        assert!((c.last().unwrap().frac_nodes - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_graph_drops_fast() {
        let c = byte_ccdf(&skewed());
        // Top ~5% of nodes (the elephant pair) carry almost everything.
        let early = c.iter().find(|p| p.frac_nodes >= 0.05).unwrap();
        assert!(early.ccdf < 0.01, "CCDF after top 5% should be tiny: {}", early.ccdf);
    }

    #[test]
    fn top_share_and_gini_reflect_concentration() {
        let g = skewed();
        assert!(top_share(&g, 0.05) > 0.99);
        assert!(byte_gini(&g) > 0.8, "gini {}", byte_gini(&g));

        // Uniform graph for contrast.
        let mut edges = HashMap::new();
        for d in 0..10u8 {
            edges.insert((node(d * 2), node(d * 2 + 1)), stats(1000));
        }
        let uniform = CommGraph::from_edge_map("ip", 0, 3600, edges);
        assert!(byte_gini(&uniform) < 0.1, "gini {}", byte_gini(&uniform));
        assert!((top_share(&uniform, 0.5) - 0.5).abs() < 0.01);
    }

    #[test]
    fn empty_graph_statistics() {
        let g = CommGraph::from_edge_map("ip", 0, 60, HashMap::new());
        assert!(byte_ccdf(&g).is_empty());
        assert_eq!(top_share(&g, 0.1), 0.0);
        assert_eq!(byte_gini(&g), 0.0);
        assert!(detect_hubs(&g, 3.0).is_empty());
    }

    #[test]
    fn hub_detection_finds_the_star_center() {
        let mut edges = HashMap::new();
        for d in 10..40u8 {
            edges.insert((node(1), node(d)), stats(1000));
        }
        // A little background mesh so the mean degree is not hub-dominated.
        edges.insert((node(50), node(51)), stats(10));
        edges.insert((node(52), node(53)), stats(10));
        let g = CommGraph::from_edge_map("ip", 0, 3600, edges);
        let hubs = detect_hubs(&g, 5.0);
        assert_eq!(hubs.len(), 1);
        assert_eq!(hubs[0].label, "10.0.0.1");
        assert_eq!(hubs[0].degree, 30);
    }

    #[test]
    fn chatty_clique_detection() {
        let mut edges = HashMap::new();
        // A dense 5-clique with heavy traffic.
        for i in 1..6u8 {
            for j in (i + 1)..6u8 {
                edges.insert((node(i), node(j)), stats(1_000_000));
            }
        }
        // Background pairs.
        for d in 100..110u8 {
            edges.insert((node(d), node(d.wrapping_add(100))), stats(100));
        }
        let g = CommGraph::from_edge_map("ip", 0, 3600, edges);
        let cliques = detect_chatty_cliques(&g, 4, 0.9);
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].members.len(), 5);
        assert!((cliques[0].density - 1.0).abs() < 1e-12);
    }
}
