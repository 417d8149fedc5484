//! Counterfactual analyses (§2.3).
//!
//! Connection summaries convert into distributions of flow sizes and
//! inter-arrival times (quantized to the summary cadence), enabling
//! what-if reasoning without packet traces. This module implements the
//! paper's concrete example — *where are the communication bottlenecks, and
//! what should an administrator do about them* — as two advisors:
//!
//! * [`capacity_plan`] — nodes carrying an outsized share of bytes are
//!   candidates for a larger VM SKU (Figure 6's "where to invest").
//! * [`proximity_plan_filtered`] — node pairs exchanging heavy traffic are
//!   candidates for the same availability zone / proximity group.

use commgraph_graph::{Adjacent, CommGraph, NodeId};
use flowlog::record::ConnSummary;
use serde::Serialize;
use std::collections::HashMap;

/// Distribution summary of per-flow byte totals in a window.
#[derive(Debug, Clone, Serialize)]
pub struct FlowSizeDistribution {
    /// Number of distinct flows.
    pub flows: usize,
    /// Quantiles of flow size in bytes: (q, size) for q ∈ {.5,.9,.99,1.0}.
    pub quantiles: Vec<(f64, u64)>,
    /// Mean flow size in bytes.
    pub(crate) mean: f64,
}

/// Group records into flows (canonical key) and summarize total sizes.
pub fn flow_sizes(records: &[ConnSummary]) -> FlowSizeDistribution {
    let mut per_flow: HashMap<_, u64> = HashMap::new();
    for r in records {
        *per_flow.entry(r.key.canonical()).or_insert(0) += r.bytes_total();
    }
    let mut sizes: Vec<u64> = per_flow.into_values().collect();
    sizes.sort_unstable();
    let flows = sizes.len();
    if flows == 0 {
        return FlowSizeDistribution { flows: 0, quantiles: Vec::new(), mean: 0.0 };
    }
    let q = |p: f64| -> u64 { sizes[((flows as f64 - 1.0) * p).round() as usize] };
    FlowSizeDistribution {
        flows,
        quantiles: vec![(0.5, q(0.5)), (0.9, q(0.9)), (0.99, q(0.99)), (1.0, q(1.0))],
        mean: sizes.iter().sum::<u64>() as f64 / flows as f64,
    }
}

/// Distribution of new-flow inter-arrival times on each node pair,
/// quantized to the summary cadence.
#[derive(Debug, Clone, Serialize)]
pub struct InterArrivalSummary {
    /// Node pairs with at least two arrivals.
    pub pairs: usize,
    /// Median of per-pair median inter-arrival seconds.
    pub median_secs: f64,
    /// Fraction of pairs whose median inter-arrival is one interval (i.e.
    /// continuously active pairs).
    pub continuously_active_frac: f64,
}

/// Inter-arrival statistics of new flows per node pair.
pub fn inter_arrivals(records: &[ConnSummary], interval: u64) -> InterArrivalSummary {
    assert!(interval > 0, "interval must be positive");
    // First-seen timestamp per flow; arrival sequence per IP pair.
    let mut first_seen: HashMap<_, u64> = HashMap::new();
    for r in records {
        let e = first_seen.entry(r.key.canonical()).or_insert(r.ts);
        *e = (*e).min(r.ts);
    }
    let mut arrivals: HashMap<(std::net::Ipv4Addr, std::net::Ipv4Addr), Vec<u64>> = HashMap::new();
    for (key, ts) in first_seen {
        let pair = if key.local_ip <= key.remote_ip {
            (key.local_ip, key.remote_ip)
        } else {
            (key.remote_ip, key.local_ip)
        };
        arrivals.entry(pair).or_default().push(ts);
    }
    let mut medians: Vec<u64> = Vec::new();
    let mut continuous = 0usize;
    for times in arrivals.values_mut() {
        if times.len() < 2 {
            continue;
        }
        times.sort_unstable();
        let mut gaps: Vec<u64> = times.windows(2).map(|w| (w[1] - w[0]).max(interval)).collect();
        gaps.sort_unstable();
        let med = gaps[(gaps.len() - 1) / 2];
        if med <= interval {
            continuous += 1;
        }
        medians.push(med);
    }
    let pairs = medians.len();
    medians.sort_unstable();
    InterArrivalSummary {
        pairs,
        median_secs: if pairs == 0 { 0.0 } else { medians[(pairs - 1) / 2] as f64 },
        continuously_active_frac: if pairs == 0 { 0.0 } else { continuous as f64 / pairs as f64 },
    }
}

/// One capacity-investment recommendation.
#[derive(Debug, Clone, Serialize)]
pub struct CapacityAdvice {
    /// The hot node.
    pub node: String,
    /// Its share of total graph bytes.
    pub byte_share: f64,
    /// Its byte total.
    pub(crate) bytes: u64,
    /// Suggested action.
    pub action: &'static str,
}

/// Recommend SKU upgrades for nodes above `share_threshold` of total bytes.
pub fn capacity_plan(g: &CommGraph, share_threshold: f64) -> Vec<CapacityAdvice> {
    assert!((0.0..=1.0).contains(&share_threshold), "threshold in [0, 1]");
    // Node totals double-count each edge (both endpoints), so normalize by
    // twice the edge totals.
    let total = (g.totals().bytes() as f64 * 2.0).max(1.0);
    let mut out = Vec::new();
    for idx in g.nodes_by_bytes() {
        let bytes = g.node_stats(idx).bytes;
        let share = bytes as f64 / total;
        if share < share_threshold {
            break; // sorted descending
        }
        out.push(CapacityAdvice {
            node: g.node(idx).to_string(),
            byte_share: share,
            bytes,
            action: "upgrade VM SKU / add NIC bandwidth",
        });
    }
    out
}

/// One co-location recommendation.
#[derive(Debug, Clone, Serialize)]
pub struct ProximityAdvice {
    /// One endpoint.
    pub a: String,
    /// The other endpoint.
    pub b: String,
    /// Bytes exchanged on the edge.
    pub bytes: u64,
    /// Suggested action.
    pub action: &'static str,
}

/// Recommend proximity placement for the `top_k` heaviest edges whose
/// endpoints are both `placeable` (typically: both inside the subscription —
/// external clients and the collapsed [`NodeId::Other`] cannot be moved).
pub fn proximity_plan_filtered(
    g: &CommGraph,
    top_k: usize,
    placeable: impl Fn(&NodeId) -> bool,
) -> Vec<ProximityAdvice> {
    let mut edges: Vec<(u64, NodeId, NodeId)> = Vec::new();
    for i in 0..g.node_count() as u32 {
        for &Adjacent { node: j, stats, .. } in g.neighbors(i) {
            if j <= i {
                continue;
            }
            let (a, b) = (g.node(i), g.node(j));
            if a == NodeId::Other || b == NodeId::Other || !placeable(&a) || !placeable(&b) {
                continue;
            }
            edges.push((stats.bytes(), a, b));
        }
    }
    edges.sort_by_key(|(bytes, _, _)| std::cmp::Reverse(*bytes));
    edges
        .into_iter()
        .take(top_k)
        .map(|(bytes, a, b)| ProximityAdvice {
            a: a.to_string(),
            b: b.to_string(),
            bytes,
            action: "co-locate in one availability zone / proximity group",
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph_graph::EdgeStats;
    use flowlog::record::FlowKey;
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    fn rec(ts: u64, lport: u16, bytes: u64) -> ConnSummary {
        ConnSummary {
            ts,
            key: FlowKey::tcp(ip(1), lport, ip(2), 443),
            pkts_sent: bytes / 1000 + 1,
            pkts_rcvd: 1,
            bytes_sent: bytes,
            bytes_rcvd: 0,
        }
    }

    #[test]
    fn flow_sizes_group_by_flow() {
        // Flow A spans two minutes (same key), flow B is one minute.
        let records = vec![rec(0, 40_000, 1000), rec(60, 40_000, 1000), rec(0, 40_001, 500)];
        let d = flow_sizes(&records);
        assert_eq!(d.flows, 2);
        assert_eq!(d.quantiles.last().unwrap().1, 2000, "max flow accumulated");
        assert!((d.mean - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn flow_sizes_empty() {
        let d = flow_sizes(&[]);
        assert_eq!(d.flows, 0);
        assert_eq!(d.mean, 0.0);
    }

    #[test]
    fn inter_arrivals_detect_continuous_pairs() {
        // New flow every minute between the same pair: continuously active.
        let records: Vec<ConnSummary> =
            (0..10).map(|m| rec(m * 60, 40_000 + m as u16, 100)).collect();
        let s = inter_arrivals(&records, 60);
        assert_eq!(s.pairs, 1);
        assert_eq!(s.median_secs, 60.0);
        assert_eq!(s.continuously_active_frac, 1.0);
    }

    #[test]
    fn inter_arrivals_sparse_pairs() {
        // Arrivals 10 minutes apart.
        let records = vec![rec(0, 40_000, 100), rec(600, 40_001, 100)];
        let s = inter_arrivals(&records, 60);
        assert_eq!(s.pairs, 1);
        assert_eq!(s.median_secs, 600.0);
        assert_eq!(s.continuously_active_frac, 0.0);
    }

    fn graph() -> CommGraph {
        let mut edges = std::collections::HashMap::new();
        let st = |b: u64| EdgeStats { bytes_fwd: b, conns: 1, ..Default::default() };
        edges.insert((NodeId::Ip(ip(1)), NodeId::Ip(ip(2))), st(1_000_000));
        edges.insert((NodeId::Ip(ip(3)), NodeId::Ip(ip(4))), st(10_000));
        edges.insert((NodeId::Ip(ip(5)), NodeId::Other), st(500_000));
        CommGraph::from_edge_map("ip", 0, 3600, edges)
    }

    #[test]
    fn capacity_plan_flags_heavy_nodes_only() {
        let plan = capacity_plan(&graph(), 0.2);
        let names: Vec<&str> = plan.iter().map(|a| a.node.as_str()).collect();
        assert!(names.contains(&"10.0.0.1") && names.contains(&"10.0.0.2"));
        assert!(!names.contains(&"10.0.0.3"), "light nodes not flagged");
        for a in &plan {
            assert!(a.byte_share >= 0.2);
        }
    }

    #[test]
    fn proximity_plan_ranks_and_skips_other() {
        let plan = proximity_plan_filtered(&graph(), 2, |_| true);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].bytes, 1_000_000);
        assert!(
            plan.iter().all(|p| p.a != "OTHER" && p.b != "OTHER"),
            "collapsed node is not placeable"
        );
    }
}
