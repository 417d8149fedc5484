//! The immutable communication-graph snapshot.
//!
//! Each edge carries its counters and the distinct service ports its
//! records named (`flowlog::record::service_port`), so a window's allow
//! rules can be learned from its edges. The lowest port sits in the padding
//! of the edge's neighbour-list entries ([`Adjacent`]); an edge that carried
//! two or more keeps its sorted list in one side table, looked up only for
//! such edges. Both are canonical — ascending, whatever order the records
//! arrived in and whatever table they were aggregated in.

use crate::error::{Error, Result};
use crate::hash::FixedState;
use crate::node::NodeId;
use crate::stats::{EdgeStats, NodeStats};
use serde::Serialize;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

/// One entry of a node's neighbour list: the neighbour, the edge's counters
/// oriented outward from the owning node, and the edge's lowest service port
/// (in what would be the entry's padding: the entry is 48 bytes with or
/// without it). [`CommGraph::ports`] reads all of the edge's ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Adjacent {
    /// Dense index of the neighbour.
    pub node: u32,
    /// The lowest service port, when `ports` is not `None`.
    port: u16,
    ports: PortCount,
    /// Counters oriented from the owning node towards `node`.
    pub stats: EdgeStats,
}

impl Adjacent {
    /// The edge's one port, or its lowest; `None` without ports.
    fn port(&self) -> Option<u16> {
        (self.ports != PortCount::None).then_some(self.port)
    }
}

/// How many service ports an edge carries: where [`CommGraph::ports`] finds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
enum PortCount {
    /// None: assembled without ports, or folded into `Other`.
    None,
    /// One, inline in the entry.
    One,
    /// Two or more, listed in the graph's side table.
    Many,
}

/// A communication graph over one time window: nodes under some facet,
/// undirected edges carrying byte/packet/connection counters and the
/// service ports they were seen on.
///
/// Nodes are stored sorted by [`NodeId`], which — because the simulator
/// assigns addresses role-major — groups same-role replicas contiguously and
/// gives adjacency matrices their banded structure. Adjacency is CSR-style:
/// one sorted neighbor list per node, each edge present in both endpoint
/// lists with its stats oriented *outward* from the owning node.
#[derive(Debug, Clone, Serialize)]
pub struct CommGraph {
    facet_name: String,
    window_start: u64,
    window_len: u64,
    nodes: Vec<NodeId>,
    adj: Vec<Vec<Adjacent>>,
    /// `(lower, higher, ports)` of every edge with two or more ports,
    /// sorted by node pair.
    // bound: one list per such edge; its entries are ≤ the edge's distinct
    // ports, so the table is ≤ the window's distinct (edge, port) pairs.
    spills: Vec<(u32, u32, Vec<u16>)>,
    node_stats: Vec<NodeStats>,
    totals: EdgeStats,
    edge_count: usize,
}

/// An edge-map value as [`CommGraph::assemble`] reads it: a `Copy` word
/// with the edge's counters and the first service port it carried.
pub(crate) trait EdgeValue: Copy {
    /// Counters oriented lower → higher.
    fn stats(self) -> EdgeStats;
    /// The first service port the edge carried, if ports were recorded.
    fn port(self) -> Option<u16>;
}

impl EdgeValue for EdgeStats {
    fn stats(self) -> EdgeStats {
        self
    }
    fn port(self) -> Option<u16> {
        None
    }
}

impl EdgeValue for (EdgeStats, Option<u16>) {
    fn stats(self) -> EdgeStats {
        self.0
    }
    fn port(self) -> Option<u16> {
        self.1
    }
}

impl CommGraph {
    /// Assemble a graph from an edge map — a map under any hasher, or a
    /// `drain()` of one; iteration order does not matter. Edge keys must be
    /// distinct `(lower, higher)` ordered pairs (self-loops allowed) with
    /// stats oriented lower→higher. The edges carry no service ports: ports
    /// come from records, through [`crate::GraphBuilder`].
    pub fn from_edge_map(
        facet_name: impl Into<String>,
        window_start: u64,
        window_len: u64,
        edges: impl IntoIterator<Item = ((NodeId, NodeId), EdgeStats), IntoIter: ExactSizeIterator>,
    ) -> Self {
        let no_spills: [((NodeId, NodeId), BTreeSet<u16>); 0] = [];
        CommGraph::assemble(facet_name, window_start, window_len, edges, no_spills)
    }

    /// The one assembly behind every graph: [`CommGraph::from_edge_map`]
    /// with each edge's first service port in its value, and `spills` — the
    /// further ports of each edge that carried several, by edge key — beside
    /// the edge map, so the loops over every edge move only `Copy` words.
    pub(crate) fn assemble<V: EdgeValue>(
        facet_name: impl Into<String>,
        window_start: u64,
        window_len: u64,
        edges: impl IntoIterator<Item = ((NodeId, NodeId), V), IntoIter: ExactSizeIterator>,
        spills: impl IntoIterator<Item = ((NodeId, NodeId), BTreeSet<u16>)>,
    ) -> Self {
        let edges = edges.into_iter();
        // Pass 1: intern endpoints in discovery order — one cheap probe
        // each, no sort over 2·E endpoints — and count degrees.
        let mut index: HashMap<NodeId, u32, FixedState> = HashMap::default();
        let mut found: Vec<NodeId> = Vec::new();
        let mut degree: Vec<u32> = Vec::new();
        let mut intern = |n: NodeId| {
            let id = *index.entry(n).or_insert_with(|| {
                found.push(n);
                degree.push(0);
                found.len() as u32 - 1
            });
            degree[id as usize] += 1;
            id
        };
        let edge_count = edges.len();
        // Endpoints by discovery index with the stats, and beside them (a
        // 48-byte element copies faster than a 56-byte one) the first port.
        let mut resolved = Vec::with_capacity(edge_count);
        let mut first_ports = Vec::with_capacity(edge_count);
        for ((a, b), value) in edges {
            debug_assert!(a <= b, "edge keys must be ordered");
            let ia = intern(a);
            resolved.push((ia, if a == b { ia } else { intern(b) }, value.stats()));
            first_ports.push(value.port());
        }
        // Rank the discovered nodes: dense indices follow `NodeId` order, so
        // an edge's lower key end keeps the lower rank.
        let nodes = found.len();
        let mut order: Vec<u32> = (0..nodes as u32).collect();
        order.sort_unstable_by_key(|&p| found[p as usize]);
        let mut rank = vec![0u32; nodes];
        for (r, &p) in order.iter().enumerate() {
            rank[p as usize] = r as u32;
        }
        for edge in &mut resolved {
            (edge.0, edge.1) = (rank[edge.0 as usize], rank[edge.1 as usize]);
        }
        // Visit the edges in (lower, higher) order — a stable counting sort
        // by the higher end, then by the lower — and every neighbour list
        // fills sorted: a node's lower neighbours arrive first, ascending,
        // then its higher ones. No list is sorted after the fact.
        let visit = {
            let by_higher = counting_sort(0..edge_count as u32, nodes, |i| resolved[i as usize].1);
            counting_sort(by_higher.iter().copied(), nodes, |i| resolved[i as usize].0)
        };

        // Pass 2: fill adjacency lists allocated at their final size.
        let mut adj: Vec<Vec<Adjacent>> =
            order.iter().map(|&p| Vec::with_capacity(degree[p as usize] as usize)).collect();
        let mut totals = EdgeStats::default();
        for i in visit {
            let (ia, ib, stats) = resolved[i as usize];
            let first = first_ports[i as usize];
            let (port, ports) = first.map_or((0, PortCount::None), |port| (port, PortCount::One));
            totals.absorb(&stats);
            adj[ia as usize].push(Adjacent { node: ib, port, ports, stats });
            if ia != ib {
                adj[ib as usize].push(Adjacent { node: ia, port, ports, stats: stats.reversed() });
            }
        }
        // Free the scratch before anything else is allocated: the thread's
        // heap then serves the next assembly from pages it already holds
        // instead of trimming them and faulting fresh ones back in.
        drop((resolved, first_ports));
        let mut node_stats = vec![NodeStats::default(); adj.len()];
        for (list, ns) in adj.iter().zip(&mut node_stats) {
            // Each incident edge is in the list once (a self-loop too).
            for e in list.iter() {
                ns.bytes += e.stats.bytes();
                ns.pkts += e.stats.pkts();
                ns.conns += e.stats.conns;
                ns.degree += 1;
            }
        }
        // The multi-port edges: each gets its sorted list, and both of its
        // entries the list's lowest port.
        let mut listed = Vec::new();
        for ((a, b), mut more) in spills {
            let (Some(&pa), Some(&pb)) = (index.get(&a), index.get(&b)) else { continue };
            let (lo, hi) = (rank[pa as usize], rank[pb as usize]);
            let Some(entry) = edge_mut(&mut adj, lo, hi) else { continue };
            more.extend(entry.port());
            let list: Vec<u16> = more.into_iter().collect();
            let (port, ports) = match list[..] {
                [] => continue,
                [port] => (port, PortCount::One),
                [port, ..] => (port, PortCount::Many),
            };
            (entry.port, entry.ports) = (port, ports);
            if let Some(mirror) = edge_mut(&mut adj, hi, lo) {
                (mirror.port, mirror.ports) = (port, ports);
            }
            if ports == PortCount::Many {
                listed.push((lo, hi, list));
            }
        }
        listed.sort_unstable_by_key(|&(a, b, _)| (a, b));
        CommGraph {
            facet_name: facet_name.into(),
            window_start,
            window_len,
            nodes: order.iter().map(|&p| found[p as usize]).collect(),
            adj,
            spills: listed,
            node_stats,
            totals,
            edge_count,
        }
    }

    /// Name of the facet this graph was built under (`"ip"`, `"ip-port"`, …).
    pub fn facet_name(&self) -> &str {
        &self.facet_name
    }

    /// Start of the time window (seconds since epoch).
    pub fn window_start(&self) -> u64 {
        self.window_start
    }

    /// Length of the time window in seconds.
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges (self-loops count once).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// All nodes, sorted by id.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The node at a dense index.
    pub fn node(&self, idx: u32) -> NodeId {
        self.nodes[idx as usize]
    }

    /// Dense index of a node id (a binary search: nodes are sorted).
    pub fn index_of(&self, node: &NodeId) -> Option<u32> {
        self.nodes.binary_search(node).ok().map(|i| i as u32)
    }

    /// Neighbor list of a node, sorted by neighbour index.
    pub fn neighbors(&self, idx: u32) -> &[Adjacent] {
        &self.adj[idx as usize]
    }

    /// The service ports of edge `e` of node `from`'s neighbour list,
    /// ascending and distinct — the same from either end. Empty for an edge
    /// assembled without ports, and for one collapsing merged into `Other`.
    pub fn ports<'a>(&'a self, from: u32, e: &'a Adjacent) -> &'a [u16] {
        match e.ports {
            PortCount::None => &[],
            PortCount::One => std::slice::from_ref(&e.port),
            PortCount::Many => {
                let pair = (from.min(e.node), from.max(e.node));
                let at = self.spills.binary_search_by_key(&pair, |&(a, b, _)| (a, b));
                at.map_or(&[], |i| &self.spills[i].2)
            }
        }
    }

    /// Stats of the edge between two nodes, oriented `a → b`, if present.
    pub fn edge(&self, a: u32, b: u32) -> Option<EdgeStats> {
        let list = &self.adj[a as usize];
        list.binary_search_by_key(&b, |e| e.node).ok().map(|i| list[i].stats)
    }

    /// Aggregate counters of a node.
    pub fn node_stats(&self, idx: u32) -> NodeStats {
        self.node_stats[idx as usize]
    }

    /// Whole-graph traffic totals.
    pub fn totals(&self) -> EdgeStats {
        self.totals
    }

    /// Node indices sorted by descending byte contribution.
    pub fn nodes_by_bytes(&self) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..self.nodes.len() as u32).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.node_stats[i as usize].bytes));
        idx
    }

    /// Symmetric dense matrix of bytes exchanged between node pairs, in node
    /// order — the object Figures 4/5 visualize and PCA consumes.
    ///
    /// Returns an error for graphs too large to densify (guard against
    /// accidentally materializing an n² matrix for a 10⁶-node graph).
    pub fn byte_matrix(&self, max_nodes: usize) -> Result<Vec<Vec<f64>>> {
        let n = self.nodes.len();
        if n > max_nodes {
            return Err(Error::InvalidConfig(format!(
                "graph has {n} nodes, above the densification cap {max_nodes}"
            )));
        }
        let mut m = vec![vec![0.0f64; n]; n];
        for (i, list) in self.adj.iter().enumerate() {
            for e in list {
                m[i][e.node as usize] = e.stats.bytes() as f64;
            }
        }
        Ok(m)
    }

    /// Graphviz DOT rendering. `groups` optionally assigns each node a group
    /// (e.g. an inferred role); nodes in the same group share a color. Edge
    /// pen width scales with log-bytes.
    pub fn to_dot(&self, groups: Option<&[usize]>) -> String {
        const PALETTE: [&str; 12] = [
            "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
            "#9c755f", "#bab0ac", "#1f77b4", "#2ca02c",
        ];
        let mut out = String::new();
        out.push_str("graph commgraph {\n  overlap=false;\n  node [style=filled];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let color = groups
                .and_then(|g| g.get(i))
                .map(|&g| PALETTE[g % PALETTE.len()])
                .unwrap_or("#cccccc");
            let _ = writeln!(out, "  n{i} [label=\"{n}\", fillcolor=\"{color}\"];");
        }
        for (i, list) in self.adj.iter().enumerate() {
            for e in list {
                if (e.node as usize) < i {
                    continue; // emit each undirected edge once
                }
                let w = 0.3 + (e.stats.bytes().max(1) as f64).log10() * 0.4;
                let _ = writeln!(out, "  n{i} -- n{} [penwidth={w:.2}];", e.node);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Compact JSON summary (counts, totals, top talkers) for experiment
    /// artifacts.
    pub fn summary_json(&self, top_k: usize) -> serde_json::Value {
        let top: Vec<serde_json::Value> = self
            .nodes_by_bytes()
            .into_iter()
            .take(top_k)
            .map(|i| {
                let ns = self.node_stats(i);
                serde_json::json!({
                    "node": self.node(i).to_string(),
                    "bytes": ns.bytes,
                    "degree": ns.degree,
                })
            })
            .collect();
        serde_json::json!({
            "facet": self.facet_name,
            "window_start": self.window_start,
            "window_len": self.window_len,
            "nodes": self.node_count(),
            "edges": self.edge_count(),
            "total_bytes": self.totals.bytes(),
            "total_conns": self.totals.conns,
            "top_talkers": top,
        })
    }
}

/// `items` stably reordered by `key`, a value below `keys`: one counting pass.
fn counting_sort(
    items: impl ExactSizeIterator<Item = u32> + Clone,
    keys: usize,
    key: impl Fn(u32) -> u32,
) -> Vec<u32> {
    let mut next = vec![0u32; keys + 1];
    for i in items.clone() {
        next[key(i) as usize + 1] += 1;
    }
    for k in 0..keys {
        next[k + 1] += next[k];
    }
    let mut out = vec![0u32; items.len()];
    for i in items {
        let at = &mut next[key(i) as usize];
        out[*at as usize] = i;
        *at += 1;
    }
    out
}

/// Node `from`'s entry for the edge to `to` in sorted neighbour lists.
fn edge_mut(adj: &mut [Vec<Adjacent>], from: u32, to: u32) -> Option<&mut Adjacent> {
    let list = adj.get_mut(from as usize)?;
    let at = list.binary_search_by_key(&to, |e| e.node).ok()?;
    list.get_mut(at)
}

#[cfg(test)]
#[expect(clippy::needless_range_loop, reason = "index pairs are clearest for symmetry checks")]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> NodeId {
        NodeId::Ip(Ipv4Addr::new(10, 0, 0, d))
    }

    fn edge(bf: u64, br: u64, conns: u64) -> EdgeStats {
        EdgeStats { bytes_fwd: bf, bytes_rev: br, pkts_fwd: bf / 100, pkts_rev: br / 100, conns }
    }

    fn triangle() -> CommGraph {
        let mut edges = HashMap::new();
        edges.insert((ip(1), ip(2)), edge(1000, 500, 3));
        edges.insert((ip(2), ip(3)), edge(200, 100, 1));
        edges.insert((ip(1), ip(3)), edge(50, 25, 2));
        CommGraph::from_edge_map("ip", 0, 3600, edges)
    }

    #[test]
    fn counts_and_lookup() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.index_of(&ip(2)).is_some());
        assert!(g.index_of(&ip(9)).is_none());
    }

    #[test]
    fn adjacency_is_symmetric_with_oriented_stats() {
        let g = triangle();
        let (a, b) = (g.index_of(&ip(1)).unwrap(), g.index_of(&ip(2)).unwrap());
        let ab = g.edge(a, b).unwrap();
        let ba = g.edge(b, a).unwrap();
        assert_eq!(ab.bytes_fwd, 1000);
        assert_eq!(ba.bytes_fwd, 500, "stats flip when viewed from the other end");
        assert_eq!(ab.bytes(), ba.bytes());
    }

    #[test]
    fn map_edges_carry_no_ports() {
        let g = triangle();
        for i in 0..3 {
            assert!(g.neighbors(i).iter().all(|e| g.ports(i, e).is_empty()));
        }
    }

    #[test]
    fn node_stats_accumulate_incident_edges() {
        let g = triangle();
        let i1 = g.index_of(&ip(1)).unwrap();
        let ns = g.node_stats(i1);
        assert_eq!(ns.bytes, 1500 + 75);
        assert_eq!(ns.degree, 2);
        assert_eq!(ns.conns, 5);
    }

    #[test]
    fn totals_count_each_edge_once() {
        let g = triangle();
        assert_eq!(g.totals().bytes(), 1875);
        assert_eq!(g.totals().conns, 6);
    }

    #[test]
    fn byte_matrix_is_symmetric() {
        let g = triangle();
        let m = g.byte_matrix(10).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[i][j], m[j][i]);
            }
            assert_eq!(m[i][i], 0.0);
        }
        assert!(g.byte_matrix(2).is_err(), "cap is enforced");
    }

    #[test]
    fn self_loop_counted_once() {
        let mut edges = HashMap::new();
        edges.insert((ip(1), ip(1)), edge(100, 0, 1));
        let g = CommGraph::from_edge_map("service", 0, 60, edges);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_stats(0).degree, 1);
        assert_eq!(g.totals().bytes(), 100);
        let m = g.byte_matrix(10).unwrap();
        assert_eq!(m[0][0], 100.0);
    }

    #[test]
    fn nodes_by_bytes_ranks_heaviest_first() {
        let g = triangle();
        let order = g.nodes_by_bytes();
        // ip(1) (1575) > ip(2) (1800)? ip(2): edges (1,2)=1500 + (2,3)=300 = 1800.
        assert_eq!(g.node(order[0]), ip(2));
    }

    #[test]
    fn dot_contains_nodes_edges_and_groups() {
        let g = triangle();
        let dot = g.to_dot(Some(&[0, 0, 1]));
        assert!(dot.contains("n0 -- n1"));
        assert!(dot.contains("10.0.0.1"));
        assert_eq!(dot.matches(" -- ").count(), 3);
        // Same group ⇒ same color string appears at least twice.
        let color_count = dot.matches("#4e79a7").count();
        assert_eq!(color_count, 2);
    }

    #[test]
    fn summary_json_has_expected_fields() {
        let g = triangle();
        let j = g.summary_json(2);
        assert_eq!(j["nodes"], 3);
        assert_eq!(j["edges"], 3);
        assert_eq!(j["top_talkers"].as_array().unwrap().len(), 2);
    }

    /// The assembly this kernel replaced (sort + dedup over all endpoints,
    /// SipHash index, adjacency grown from empty), kept as the oracle.
    #[expect(
        clippy::type_complexity,
        reason = "the oracle returns the assembly's five parts as one tuple"
    )]
    fn parent_assembly(
        edges: &HashMap<(NodeId, NodeId), EdgeStats>,
    ) -> (Vec<NodeId>, Vec<Vec<(u32, EdgeStats)>>, Vec<NodeStats>, EdgeStats, usize) {
        let mut nodes: Vec<NodeId> = edges.keys().flat_map(|(a, b)| [*a, *b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let index: HashMap<NodeId, u32> =
            nodes.iter().enumerate().map(|(i, n)| (*n, i as u32)).collect();
        let mut adj = vec![Vec::new(); nodes.len()];
        let mut node_stats = vec![NodeStats::default(); nodes.len()];
        let mut totals = EdgeStats::default();
        for ((a, b), stats) in edges {
            let (ia, ib) = (index[a], index[b]);
            totals.absorb(stats);
            adj[ia as usize].push((ib, *stats));
            if ia != ib {
                adj[ib as usize].push((ia, stats.reversed()));
            }
            for i in if ia == ib { vec![ia] } else { vec![ia, ib] } {
                let ns: &mut NodeStats = &mut node_stats[i as usize];
                ns.bytes += stats.bytes();
                ns.pkts += stats.pkts();
                ns.conns += stats.conns;
                ns.degree += 1;
            }
        }
        for list in &mut adj {
            list.sort_unstable_by_key(|(n, _)| *n);
        }
        (nodes, adj, node_stats, totals, edges.len())
    }

    fn assert_matches_parent(edges: HashMap<(NodeId, NodeId), EdgeStats>) {
        let (nodes, adj, node_stats, totals, edge_count) = parent_assembly(&edges);
        let g = CommGraph::from_edge_map("mixed", 0, 60, edges);
        assert_eq!(g.nodes(), nodes);
        assert_eq!(g.totals(), totals);
        assert_eq!(g.edge_count(), edge_count);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(g.index_of(n), Some(i as u32));
            let got: Vec<(u32, EdgeStats)> =
                g.neighbors(i as u32).iter().map(|e| (e.node, e.stats)).collect();
            assert_eq!(got, adj[i], "adjacency of {n}");
            assert_eq!(g.node_stats(i as u32), node_stats[i], "stats of {n}");
        }
    }

    #[test]
    fn assembly_matches_the_parent_kernel() {
        assert_matches_parent(HashMap::new());
        let v4 = |d: u8| Ipv4Addr::new(10, 0, d / 16, d);
        // Self-loops, OTHER, and every key kind sharing one map.
        let mixed = [
            NodeId::Ip(v4(1)),
            NodeId::Ip(v4(200)),
            NodeId::IpPort(v4(1), 443),
            NodeId::IpPort(v4(1), 8080),
            NodeId::Service(0),
            NodeId::Service(9),
            NodeId::Other,
        ];
        let mut edges = HashMap::new();
        for (i, a) in mixed.iter().enumerate() {
            for (j, b) in mixed.iter().enumerate().skip(i) {
                if (i + j) % 3 != 1 {
                    edges.insert(
                        (*a.min(b), *a.max(b)),
                        edge((i * 700 + j) as u64, j as u64, 1 + i as u64),
                    );
                }
            }
        }
        assert!(edges.contains_key(&(NodeId::Other, NodeId::Other)), "OTHER self-loop present");
        assert_matches_parent(edges);
        // A dense block of plain IPs: 40 nodes, 820 edges with self-loops.
        let mut dense = HashMap::new();
        for a in 0..40u8 {
            for b in a..40 {
                dense.insert(
                    (NodeId::Ip(v4(a)), NodeId::Ip(v4(b))),
                    edge(a as u64 * 100, b as u64, 2),
                );
            }
        }
        assert_matches_parent(dense);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = CommGraph::from_edge_map("ip", 0, 60, HashMap::new());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.byte_matrix(10).unwrap().is_empty());
    }
}
