//! Memory accounting for graph-construction state.
//!
//! "The memory need is proportional to the number of node pairs in the
//! graph" (§3.2). These estimators price that proportionality in bytes, so
//! the COGS model and the heavy-hitter experiments can reason about working
//! sets without heap profilers.

use commgraph_graph::CommGraph;

/// Approximate heap bytes for one edge entry in the aggregation hash map:
/// the `(NodeId, NodeId)` key (2 × 24 B enum), the `EdgeStats` value
/// (5 × 8 B), and amortized hash-table overhead.
pub(crate) const BYTES_PER_EDGE_ENTRY: usize = 112;

/// Approximate heap bytes per node in the finished CSR snapshot: the id,
/// its stats, and its adjacency-vector header.
pub(crate) const BYTES_PER_NODE: usize = 88;

/// Approximate heap bytes per directed adjacency slot in the snapshot.
pub(crate) const BYTES_PER_ADJ_SLOT: usize = 48;

/// Estimated working-set bytes of an aggregation map with `edges` entries.
pub fn builder_bytes(edges: usize) -> usize {
    edges * BYTES_PER_EDGE_ENTRY
}

/// Estimated heap bytes of a finished snapshot.
pub fn snapshot_bytes(g: &CommGraph) -> usize {
    g.node_count() * BYTES_PER_NODE + 2 * g.edge_count() * BYTES_PER_ADJ_SLOT
}

/// Human-readable byte count (`"1.5 MiB"`).
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph_graph::{EdgeStats, NodeId};
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    #[test]
    fn builder_estimate_is_linear() {
        assert_eq!(builder_bytes(0), 0);
        assert_eq!(builder_bytes(1000), 1000 * BYTES_PER_EDGE_ENTRY);
    }

    #[test]
    fn snapshot_estimate_tracks_graph_size() {
        let mut edges = HashMap::new();
        for i in 0..10u8 {
            edges.insert(
                (NodeId::Ip(Ipv4Addr::new(10, 0, 0, i)), NodeId::Ip(Ipv4Addr::new(10, 0, 1, i))),
                EdgeStats::default(),
            );
        }
        let g = CommGraph::from_edge_map("ip", 0, 3600, edges);
        let est = snapshot_bytes(&g);
        assert_eq!(est, 20 * BYTES_PER_NODE + 20 * BYTES_PER_ADJ_SLOT);
    }

    #[test]
    fn human_readable_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
        assert!(human_bytes(5 * 1024 * 1024 * 1024).contains("GiB"));
    }
}
