//! Heavy-hitter collapsing (§3.2's memory mitigation).
//!
//! "Remote IPs and ephemeral ports that do not individually account for a
//! sizable share of traffic are collapsed together. In fact, the graph sizes
//! in Table 1 collapse IPs contributing less than 0.1% of bytes, packets or
//! connections into one node."
//!
//! [`collapse`] implements exactly that rule: a node survives if it reaches
//! the threshold share on *any* of the three metrics, or if a caller-supplied
//! predicate protects it (experiments protect the monitored inventory, since
//! the subscription's own resources are always of interest). Everything else
//! folds into the single [`NodeId::Other`] node; edge counters are merged,
//! never dropped, so graph-wide totals are invariant under collapsing. An
//! edge between two surviving nodes keeps its service ports; one merged into
//! `Other` loses them.

use crate::graph::CommGraph;
use crate::node::NodeId;
use crate::stats::EdgeStats;
use std::collections::{BTreeSet, HashMap};

/// The paper's Table 1 threshold: 0.1% of bytes, packets, or connections.
pub const PAPER_THRESHOLD: f64 = 0.001;

/// Collapse small contributors of `g` into [`NodeId::Other`].
///
/// A node is kept if its share of total bytes, packets, **or** connections
/// is at least `threshold`, or if `protect(node)` returns true. Edges whose
/// endpoints both collapse become a self-loop on `Other`.
///
/// # Panics
/// Panics if `threshold` is not in `[0, 1]`.
pub fn collapse(g: &CommGraph, threshold: f64, protect: impl Fn(&NodeId) -> bool) -> CommGraph {
    assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0, 1]");
    let totals = g.totals();
    // Shares are relative to *twice* the edge totals because each edge's
    // traffic is incident to two nodes — equivalently, a node's share of the
    // sum of all node totals.
    let (tb, tp, tc) = (
        (totals.bytes() as f64 * 2.0).max(1.0),
        (totals.pkts() as f64 * 2.0).max(1.0),
        (totals.conns as f64 * 2.0).max(1.0),
    );
    let survives = |idx: u32| -> bool {
        let node = g.node(idx);
        if protect(&node) {
            return true;
        }
        let ns = g.node_stats(idx);
        ns.bytes as f64 / tb >= threshold
            || ns.pkts as f64 / tp >= threshold
            || ns.conns as f64 / tc >= threshold
    };

    let mut mapped: Vec<NodeId> = Vec::with_capacity(g.node_count());
    for idx in 0..g.node_count() as u32 {
        mapped.push(if survives(idx) { g.node(idx) } else { NodeId::Other });
    }

    let mut edges: HashMap<(NodeId, NodeId), (EdgeStats, Option<u16>)> = HashMap::new();
    let mut spills: Vec<((NodeId, NodeId), BTreeSet<u16>)> = Vec::new();
    for i in 0..g.node_count() as u32 {
        for e in g.neighbors(i) {
            if e.node < i {
                continue; // visit each undirected edge once (self-loops: j == i)
            }
            let (a, b) = (mapped[i as usize], mapped[e.node as usize]);
            // `stats` is oriented i→j; re-orient for the mapped key order.
            let (key, oriented) =
                if a <= b { ((a, b), e.stats) } else { ((b, a), e.stats.reversed()) };
            let (stats, first) = edges.entry(key).or_default();
            stats.absorb(&oriented);
            // Kept 1:1 when neither end folded: its key is its own, and so
            // are its ports. An edge merged into `Other` keeps none — `Other`
            // is never a policy subject.
            if a != NodeId::Other && b != NodeId::Other {
                if let Some((&lowest, more)) = g.ports(i, e).split_first() {
                    *first = Some(lowest);
                    if !more.is_empty() {
                        spills.push((key, more.iter().copied().collect()));
                    }
                }
            }
        }
    }
    CommGraph::assemble(g.facet_name(), g.window_start(), g.window_len(), edges, spills)
}

/// Collapse with the paper's 0.1% threshold and no protected nodes.
pub fn collapse_default(g: &CommGraph) -> CommGraph {
    collapse(g, PAPER_THRESHOLD, |_| false)
}

/// Per-NIC heavy-hitter survival — the vantage the paper's §3.2 describes:
/// "**remote IPs** and ephemeral ports that do not individually account for
/// a sizable share of traffic are collapsed together."
///
/// Telemetry is collected per VM NIC, so "share of traffic" is naturally the
/// remote peer's share of *that reporting VM's* traffic in the interval. A
/// remote endpoint survives if, on **any** reporting VM in **any** interval,
/// it accounted for at least `threshold` of that VM's bytes, packets, or
/// connections. Reporting (local) endpoints always survive — the
/// subscription's own inventory is never folded.
///
/// This reading reproduces all four Table 1 node counts: a portal client is
/// a sizable share of one web server's minute even though it is invisible at
/// cluster scale, while one of 250 light clients behind a busy ingress tier
/// is not.
#[derive(Debug)]
pub struct NicLocalSurvivors {
    facet: crate::node::Facet,
    threshold: f64,
    survivors: std::collections::HashSet<NodeId>,
}

impl NicLocalSurvivors {
    /// Track per-NIC survivors under `facet` at `threshold` (0.001 = paper).
    pub fn new(facet: crate::node::Facet, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0, 1]");
        NicLocalSurvivors { facet, threshold, survivors: std::collections::HashSet::new() }
    }

    /// Offer one interval's records (one minute batch, typically).
    pub fn add_interval(&mut self, records: &[flowlog::record::ConnSummary]) {
        use std::net::Ipv4Addr;
        // Per reporting VM: total traffic and per-remote-node traffic.
        struct VmAcc {
            totals: (u64, u64, u64),
            per_remote: HashMap<NodeId, (u64, u64, u64)>,
        }
        let mut per_vm: HashMap<Ipv4Addr, VmAcc> = HashMap::new();
        for r in records {
            let (local_node, remote_node) = self.facet.endpoints(r);
            // The reporting endpoint always survives.
            self.survivors.insert(local_node);
            let acc = per_vm
                .entry(r.key.local_ip)
                .or_insert_with(|| VmAcc { totals: (0, 0, 0), per_remote: HashMap::new() });
            let (b, p) = (r.bytes_total(), r.pkts_total());
            acc.totals.0 += b;
            acc.totals.1 += p;
            acc.totals.2 += 1;
            let e = acc.per_remote.entry(remote_node).or_default();
            e.0 += b;
            e.1 += p;
            e.2 += 1;
        }
        for acc in per_vm.values() {
            let (tb, tp, tc) = (
                acc.totals.0.max(1) as f64,
                acc.totals.1.max(1) as f64,
                acc.totals.2.max(1) as f64,
            );
            for (n, (b, p, c)) in &acc.per_remote {
                if self.survivors.contains(n) {
                    continue;
                }
                if *b as f64 / tb >= self.threshold
                    || *p as f64 / tp >= self.threshold
                    || *c as f64 / tc >= self.threshold
                {
                    self.survivors.insert(*n);
                }
            }
        }
    }

    /// Whether a node survived on some vantage in some interval.
    pub fn is_survivor(&self, n: &NodeId) -> bool {
        self.survivors.contains(n)
    }

    /// Collapse a graph, keeping exactly the survivors.
    pub fn collapse(&self, g: &CommGraph) -> CommGraph {
        collapse(g, 1.0, |n| self.is_survivor(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> NodeId {
        NodeId::Ip(Ipv4Addr::new(10, 0, 0, d))
    }

    fn edge(bytes: u64, conns: u64) -> EdgeStats {
        EdgeStats { bytes_fwd: bytes, bytes_rev: 0, pkts_fwd: bytes / 100, pkts_rev: 0, conns }
    }

    /// Hub with two big spokes and many tiny ones.
    fn hubby() -> CommGraph {
        let mut edges = HashMap::new();
        edges.insert((ip(1), ip(2)), edge(1_000_000, 10));
        edges.insert((ip(1), ip(3)), edge(900_000, 10));
        for d in 10..60u8 {
            edges.insert((ip(1), ip(d)), edge(10, 1));
        }
        CommGraph::from_edge_map("ip", 0, 3600, edges)
    }

    #[test]
    fn small_nodes_fold_into_other() {
        let g = hubby();
        let c = collapse(&g, 0.01, |_| false);
        // Survivors: hub, two big spokes, OTHER.
        assert_eq!(c.node_count(), 4);
        assert!(c.index_of(&NodeId::Other).is_some());
    }

    #[test]
    fn traffic_is_conserved() {
        let g = hubby();
        let c = collapse(&g, 0.01, |_| false);
        assert_eq!(c.totals().bytes(), g.totals().bytes());
        assert_eq!(c.totals().pkts(), g.totals().pkts());
        assert_eq!(c.totals().conns, g.totals().conns);
    }

    #[test]
    fn zero_threshold_is_identity_shape() {
        let g = hubby();
        let c = collapse(&g, 0.0, |_| false);
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
    }

    #[test]
    fn protection_overrides_threshold() {
        let g = hubby();
        let keep_all_ips = collapse(&g, 0.5, |n| matches!(n, NodeId::Ip(_)));
        assert_eq!(keep_all_ips.node_count(), g.node_count(), "everything protected");
    }

    #[test]
    fn connection_share_alone_can_save_a_node() {
        // A node tiny in bytes but dominating connections must survive.
        let mut edges = HashMap::new();
        edges.insert((ip(1), ip(2)), edge(1_000_000, 1));
        edges.insert((ip(3), ip(4)), edge(100, 1000));
        let g = CommGraph::from_edge_map("ip", 0, 3600, edges);
        let c = collapse(&g, 0.4, |_| false);
        assert!(c.index_of(&ip(3)).is_some(), "kept via connection share");
        assert!(c.index_of(&ip(4)).is_some());
    }

    #[test]
    fn edges_between_collapsed_nodes_become_self_loop() {
        let mut edges = HashMap::new();
        edges.insert((ip(1), ip(2)), edge(1_000_000, 10));
        edges.insert((ip(8), ip(9)), edge(5, 1));
        let g = CommGraph::from_edge_map("ip", 0, 3600, edges);
        let c = collapse(&g, 0.1, |_| false);
        let other = c.index_of(&NodeId::Other).expect("OTHER exists");
        assert_eq!(c.edge(other, other).expect("self loop").bytes(), 5);
        assert_eq!(c.totals().bytes(), g.totals().bytes());
    }

    #[test]
    fn paper_threshold_constant() {
        assert_eq!(PAPER_THRESHOLD, 0.001);
        let g = hubby();
        let c = collapse_default(&g);
        assert!(c.node_count() <= g.node_count());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn out_of_range_threshold_panics() {
        collapse(&hubby(), 1.5, |_| false);
    }

    mod nic_local_survivors {
        use super::*;
        use crate::node::Facet;
        use flowlog::record::{ConnSummary, FlowKey};
        use std::net::Ipv4Addr;

        fn rec(l: Ipv4Addr, r: Ipv4Addr, bytes: u64) -> ConnSummary {
            ConnSummary {
                ts: 0,
                key: FlowKey::tcp(l, 40_000, r, 443),
                pkts_sent: bytes / 1000 + 1,
                pkts_rcvd: 1,
                bytes_sent: bytes,
                bytes_rcvd: 0,
            }
        }

        #[test]
        fn reporting_vms_always_survive() {
            let mut ns = NicLocalSurvivors::new(Facet::Ip, 0.5);
            let vm = Ipv4Addr::new(10, 0, 0, 1);
            ns.add_interval(&[rec(vm, Ipv4Addr::new(198, 18, 0, 1), 1)]);
            assert!(ns.is_survivor(&NodeId::Ip(vm)));
        }

        #[test]
        fn remote_share_is_per_vantage_not_global() {
            let mut ns = NicLocalSurvivors::new(Facet::Ip, 0.01);
            let quiet_vm = Ipv4Addr::new(10, 0, 0, 1);
            let busy_vm = Ipv4Addr::new(10, 0, 0, 2);
            let small_client = Ipv4Addr::new(198, 18, 0, 1);
            let tiny_client = Ipv4Addr::new(198, 18, 0, 2);
            // The small client is 100% of the quiet VM's traffic but would
            // be a vanishing share of the cluster's — per-NIC keeps it.
            let mut batch = vec![rec(quiet_vm, small_client, 10_000)];
            // The busy VM handles 999 heavy conversations; tiny_client's
            // single 1 KB flow is below threshold on every metric there.
            for i in 0..999u32 {
                batch.push(rec(
                    busy_vm,
                    Ipv4Addr::new(198, 19, (i / 250) as u8, (i % 250) as u8),
                    1_000_000,
                ));
            }
            batch.push(rec(busy_vm, tiny_client, 1_000));
            ns.add_interval(&batch);
            assert!(ns.is_survivor(&NodeId::Ip(small_client)));
            assert!(!ns.is_survivor(&NodeId::Ip(tiny_client)));
        }

        #[test]
        fn connection_share_counts() {
            let mut ns = NicLocalSurvivors::new(Facet::Ip, 0.5);
            let vm = Ipv4Addr::new(10, 0, 0, 1);
            let a = Ipv4Addr::new(198, 18, 0, 1);
            let b = Ipv4Addr::new(198, 18, 0, 2);
            // a has 1 of 2 connections = 50% ≥ 50%, despite tiny bytes.
            ns.add_interval(&[rec(vm, a, 1), rec(vm, b, 1_000_000)]);
            assert!(ns.is_survivor(&NodeId::Ip(a)));
        }

        #[test]
        fn collapse_respects_survivors() {
            let mut ns = NicLocalSurvivors::new(Facet::Ip, 0.2);
            let vm = Ipv4Addr::new(10, 0, 0, 1);
            let keep = Ipv4Addr::new(198, 18, 0, 1);
            let fold1 = Ipv4Addr::new(198, 18, 0, 2);
            let fold2 = Ipv4Addr::new(198, 18, 0, 3);
            // `keep` dominates bytes; the folded peers each carry one of
            // ten connections (10% < 20%) and negligible bytes.
            let mut batch = vec![rec(vm, keep, 1_000_000)];
            batch.push(rec(vm, fold1, 100));
            batch.push(rec(vm, fold2, 100));
            for i in 0..7u8 {
                batch.push(rec(vm, Ipv4Addr::new(198, 19, 0, i), 200_000));
            }
            ns.add_interval(&batch);
            let mut edges = HashMap::new();
            for r in [keep, fold1, fold2] {
                edges.insert((NodeId::Ip(vm), NodeId::Ip(r)), edge(100, 1));
            }
            let g = CommGraph::from_edge_map("ip", 0, 3600, edges);
            let c = ns.collapse(&g);
            assert!(c.index_of(&NodeId::Ip(keep)).is_some());
            assert!(c.index_of(&NodeId::Ip(fold1)).is_none());
            assert!(c.index_of(&NodeId::Other).is_some());
            assert_eq!(c.totals().bytes(), g.totals().bytes());
        }
    }
}
