//! "What changed?" — comparing two graph snapshots.
//!
//! Continuous telemetry means an administrator can ask *what changed* between
//! any two windows, or *what happened during that past event*. A
//! [`GraphDiff`] captures the structural delta (nodes and edges appearing or
//! vanishing) and the traffic delta (edges whose volume moved materially),
//! plus scalar similarity metrics used by the Figure 5 persistence analysis.

use crate::graph::CommGraph;
use crate::node::NodeId;
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// One edge whose byte volume changed by more than the configured ratio.
#[derive(Debug, Clone, Serialize)]
pub struct EdgeChange {
    /// Lower endpoint.
    pub(crate) a: NodeId,
    /// Higher endpoint.
    pub(crate) b: NodeId,
    /// Bytes in the earlier graph.
    pub(crate) bytes_before: u64,
    /// Bytes in the later graph.
    pub(crate) bytes_after: u64,
}

/// The delta between two snapshots of the same facet.
#[derive(Debug, Clone, Serialize)]
pub struct GraphDiff {
    /// Nodes present only in the later graph.
    pub added_nodes: Vec<NodeId>,
    /// Nodes present only in the earlier graph.
    pub removed_nodes: Vec<NodeId>,
    /// Edges present only in the later graph.
    pub added_edges: Vec<(NodeId, NodeId)>,
    /// Edges present only in the earlier graph.
    pub removed_edges: Vec<(NodeId, NodeId)>,
    /// Persisting edges whose byte volume changed beyond the ratio threshold.
    pub changed_edges: Vec<EdgeChange>,
    /// Jaccard similarity of the two edge sets, in `[0, 1]`.
    pub edge_jaccard: f64,
    /// Jaccard similarity of the two node sets, in `[0, 1]`.
    pub node_jaccard: f64,
}

fn edge_set(g: &CommGraph) -> HashMap<(NodeId, NodeId), u64> {
    let mut out = HashMap::with_capacity(g.edge_count());
    for i in 0..g.node_count() as u32 {
        for e in g.neighbors(i) {
            if e.node >= i {
                out.insert((g.node(i), g.node(e.node)), e.stats.bytes());
            }
        }
    }
    out
}

/// Compute the diff from `before` to `after`.
///
/// `change_ratio` sets how big a multiplicative volume change on a
/// persisting edge must be to report it (e.g. `2.0` reports edges that at
/// least doubled or at most halved).
pub fn diff(before: &CommGraph, after: &CommGraph, change_ratio: f64) -> GraphDiff {
    assert!(change_ratio >= 1.0, "change ratio must be >= 1");
    let eb = edge_set(before);
    let ea = edge_set(after);
    let nb: HashSet<NodeId> = before.nodes().iter().copied().collect();
    let na: HashSet<NodeId> = after.nodes().iter().copied().collect();

    let mut added_nodes: Vec<NodeId> = na.difference(&nb).copied().collect();
    let mut removed_nodes: Vec<NodeId> = nb.difference(&na).copied().collect();
    added_nodes.sort_unstable();
    removed_nodes.sort_unstable();

    let mut added_edges = Vec::new();
    let mut removed_edges = Vec::new();
    let mut changed_edges = Vec::new();
    for (k, &bytes_after) in &ea {
        match eb.get(k) {
            None => added_edges.push(*k),
            Some(&bytes_before) => {
                let (lo, hi) = if bytes_before <= bytes_after {
                    (bytes_before, bytes_after)
                } else {
                    (bytes_after, bytes_before)
                };
                if lo == 0 && hi > 0 || (lo > 0 && hi as f64 / lo as f64 >= change_ratio) {
                    changed_edges.push(EdgeChange { a: k.0, b: k.1, bytes_before, bytes_after });
                }
            }
        }
    }
    for k in eb.keys() {
        if !ea.contains_key(k) {
            removed_edges.push(*k);
        }
    }
    added_edges.sort_unstable();
    removed_edges.sort_unstable();
    changed_edges.sort_by_key(|x| (x.a, x.b));

    let inter_e = ea.keys().filter(|k| eb.contains_key(*k)).count();
    let union_e = ea.len() + eb.len() - inter_e;
    let inter_n = na.intersection(&nb).count();
    let union_n = na.len() + nb.len() - inter_n;

    GraphDiff {
        added_nodes,
        removed_nodes,
        added_edges,
        removed_edges,
        changed_edges,
        edge_jaccard: if union_e == 0 { 1.0 } else { inter_e as f64 / union_e as f64 },
        node_jaccard: if union_n == 0 { 1.0 } else { inter_n as f64 / union_n as f64 },
    }
}

/// Nodes whose incident adjacency changed between two snapshots of the same
/// facet — the *dirty set* that incremental window maintenance recomputes.
///
/// A node is dirty iff it was added or removed between the snapshots, or any
/// incident edge differs in presence, **in any
/// [`EdgeStats`](crate::stats::EdgeStats) counter** (byte-direction classes
/// feed the similarity tokens downstream, so a pure volume change must
/// invalidate too) **or in its service ports** (policy rules are learned
/// from them). Every other node is *clean*: its neighbor list — ids, stats
/// and ports — is identical in both graphs, which is what lets downstream
/// stages (Jaccard rows, policy synthesis) reuse prior results verbatim.
///
/// The returned ids are sorted and deduplicated.
pub fn dirty_nodes(before: &CommGraph, after: &CommGraph) -> Vec<NodeId> {
    let mut dirty = Vec::new();
    for (i, n) in after.nodes().iter().enumerate() {
        let clean = match before.index_of(n) {
            Some(bi) => incident_eq(before, bi, after, i as u32),
            None => false,
        };
        if !clean {
            dirty.push(*n);
        }
    }
    for n in before.nodes() {
        if after.index_of(n).is_none() {
            dirty.push(*n);
        }
    }
    dirty.sort_unstable();
    dirty.dedup();
    dirty
}

/// Whether a node's incident edges (neighbor identities, full stats and
/// service ports) are identical across the two snapshots. Neighbor lists are
/// sorted by dense index, and dense index order is NodeId order within each
/// graph, so a single zip compares like with like.
fn incident_eq(before: &CommGraph, bi: u32, after: &CommGraph, ai: u32) -> bool {
    let bl = before.neighbors(bi);
    let al = after.neighbors(ai);
    bl.len() == al.len()
        && bl.iter().zip(al).all(|(b, a)| {
            before.node(b.node) == after.node(a.node)
                && b.stats == a.stats
                && before.ports(bi, b) == after.ports(ai, a)
        })
}

impl GraphDiff {
    /// True when nothing structural changed and no edge moved past the ratio.
    pub fn is_quiet(&self) -> bool {
        self.added_nodes.is_empty()
            && self.removed_nodes.is_empty()
            && self.added_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.changed_edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::EdgeStats;
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> NodeId {
        NodeId::Ip(Ipv4Addr::new(10, 0, 0, d))
    }

    fn es(bytes: u64) -> EdgeStats {
        EdgeStats { bytes_fwd: bytes, ..Default::default() }
    }

    fn graph(edges: &[(u8, u8, u64)]) -> CommGraph {
        let mut m = HashMap::new();
        for &(a, b, bytes) in edges {
            m.insert((ip(a), ip(b)), es(bytes));
        }
        CommGraph::from_edge_map("ip", 0, 3600, m)
    }

    #[test]
    fn identical_graphs_are_quiet() {
        let g = graph(&[(1, 2, 100), (2, 3, 50)]);
        let d = diff(&g, &g, 2.0);
        assert!(d.is_quiet());
        assert_eq!(d.edge_jaccard, 1.0);
        assert_eq!(d.node_jaccard, 1.0);
    }

    #[test]
    fn detects_added_and_removed_structure() {
        let before = graph(&[(1, 2, 100)]);
        let after = graph(&[(1, 2, 100), (1, 3, 10)]);
        let d = diff(&before, &after, 10.0);
        assert_eq!(d.added_nodes, vec![ip(3)]);
        assert_eq!(d.added_edges, vec![(ip(1), ip(3))]);
        assert!(d.removed_edges.is_empty());

        let back = diff(&after, &before, 10.0);
        assert_eq!(back.removed_nodes, vec![ip(3)]);
        assert_eq!(back.removed_edges, vec![(ip(1), ip(3))]);
    }

    #[test]
    fn change_ratio_gates_volume_reports() {
        let before = graph(&[(1, 2, 100), (2, 3, 100)]);
        let after = graph(&[(1, 2, 150), (2, 3, 500)]);
        let d = diff(&before, &after, 2.0);
        assert_eq!(d.changed_edges.len(), 1, "only the 5x edge is reported");
        assert_eq!(d.changed_edges[0].bytes_after, 500);
        assert_eq!(d.changed_edges[0].bytes_before, 100, "a 5x change");
    }

    #[test]
    fn shrinking_edges_also_reported() {
        let before = graph(&[(1, 2, 1000)]);
        let after = graph(&[(1, 2, 100)]);
        let d = diff(&before, &after, 2.0);
        assert_eq!(d.changed_edges.len(), 1);
        let c = &d.changed_edges[0];
        assert!(c.bytes_after < c.bytes_before);
    }

    #[test]
    fn jaccard_reflects_overlap() {
        let a = graph(&[(1, 2, 1), (2, 3, 1)]);
        let b = graph(&[(1, 2, 1), (3, 4, 1)]);
        let d = diff(&a, &b, 2.0);
        // Edges: {12,23} vs {12,34}: intersection 1, union 3.
        assert!((d.edge_jaccard - 1.0 / 3.0).abs() < 1e-12);
        // Nodes: {1,2,3} vs {1,2,3,4}: 3/4.
        assert!((d.node_jaccard - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_graphs_compare_cleanly() {
        let e = graph(&[]);
        let d = diff(&e, &e, 2.0);
        assert!(d.is_quiet());
        assert_eq!(d.edge_jaccard, 1.0);
    }

    #[test]
    fn dirty_nodes_empty_for_identical_graphs() {
        let g = graph(&[(1, 2, 100), (2, 3, 50)]);
        assert!(dirty_nodes(&g, &g).is_empty());
    }

    #[test]
    fn dirty_nodes_cover_added_and_removed_structure() {
        let before = graph(&[(1, 2, 100), (3, 4, 10)]);
        let after = graph(&[(1, 2, 100), (1, 5, 7)]);
        // Edge (3,4) vanished, edge (1,5) appeared: 1 gains a neighbor,
        // 3 and 4 disappear, 5 appears. 2's adjacency is untouched.
        assert_eq!(dirty_nodes(&before, &after), vec![ip(1), ip(3), ip(4), ip(5)]);
    }

    #[test]
    fn dirty_nodes_flag_pure_volume_changes() {
        let before = graph(&[(1, 2, 100), (2, 3, 50)]);
        let after = graph(&[(1, 2, 101), (2, 3, 50)]);
        // Only the (1,2) byte counter moved: both endpoints are dirty, 3 not.
        assert_eq!(dirty_nodes(&before, &after), vec![ip(1), ip(2)]);
    }

    /// The same counters on another service port: a policy learned from the
    /// edge would change, so both its ends are dirty.
    #[test]
    fn dirty_nodes_flag_pure_port_changes() {
        use crate::{Facet, GraphBuilder};
        use flowlog::record::{ConnSummary, FlowKey};
        let build = |port: u16| {
            let at = |d: u8| Ipv4Addr::new(10, 0, 0, d);
            let mut b = GraphBuilder::new(Facet::Ip, 0, 3600);
            for (l, r, p) in [(1, 2, port), (2, 3, 5432)] {
                b.add(&ConnSummary {
                    ts: 0,
                    key: FlowKey::tcp(at(l), 40_000, at(r), p),
                    pkts_sent: 1,
                    pkts_rcvd: 1,
                    bytes_sent: 100,
                    bytes_rcvd: 10,
                });
            }
            b.finish()
        };
        let (before, after) = (build(443), build(8443));
        assert_eq!(before.totals(), after.totals());
        assert_eq!(dirty_nodes(&before, &after), vec![ip(1), ip(2)]);
        assert!(dirty_nodes(&before, &build(443)).is_empty());
    }

    #[test]
    fn clean_nodes_have_identical_incident_lists() {
        let before = graph(&[(1, 2, 100), (2, 3, 50), (4, 5, 9)]);
        let after = graph(&[(1, 2, 100), (2, 3, 75), (4, 5, 9)]);
        let dirty = dirty_nodes(&before, &after);
        for (i, n) in after.nodes().iter().enumerate() {
            if dirty.binary_search(n).is_ok() {
                continue;
            }
            let bi = before.index_of(n).expect("clean nodes exist in both graphs");
            let bl: Vec<_> =
                before.neighbors(bi).iter().map(|e| (before.node(e.node), e.stats)).collect();
            let al: Vec<_> =
                after.neighbors(i as u32).iter().map(|e| (after.node(e.node), e.stats)).collect();
            assert_eq!(bl, al, "clean node {n} must keep its exact adjacency");
        }
    }
}
