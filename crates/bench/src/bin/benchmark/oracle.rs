//! Reference results: an independent group-by over the generated records.
//!
//! Deliberately shares nothing with the product's five ingest paths — a
//! `BTreeMap` keyed by (subscription, window, canonical IP pair) — so a
//! product change that loses, double-counts or misplaces records shows as a
//! mismatch and lands in `failed_share`.

use commgraph_graph::CommGraph;
use flowlog::record::ConnSummary;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::net::Ipv4Addr;

type EdgeKey = (u32, u64, Ipv4Addr, Ipv4Addr);

/// The reference aggregate of one workload's inputs.
#[derive(Debug, Default)]
pub struct Oracle {
    edges: BTreeMap<EdgeKey, (u64, u64)>,
    /// Records offered.
    pub records: u64,
    /// Records discarded by the vantage-dedup rule (the non-canonical copy
    /// of a flow both of whose endpoints are monitored).
    pub deduped: u64,
}

impl Oracle {
    /// Aggregate one record of `subscription` into its `window_len` window.
    pub fn add(
        &mut self,
        subscription: u32,
        window_len: u64,
        monitored: Option<&HashSet<Ipv4Addr>>,
        r: &ConnSummary,
    ) {
        self.records += 1;
        let (l, m) = (r.key.local_ip, r.key.remote_ip);
        let both = monitored.is_some_and(|s| s.contains(&l) && s.contains(&m));
        if both && !r.key.is_canonical() {
            self.deduped += 1;
            return;
        }
        let key = (subscription, r.ts - r.ts % window_len, l.min(m), l.max(m));
        let e = self.edges.entry(key).or_default();
        e.0 += 1;
        e.1 += r.bytes_total();
    }

    /// Per `(subscription, window)`: nodes, edges, records kept, bytes.
    pub fn windows(&self) -> BTreeMap<(u32, u64), WindowRef> {
        let mut nodes: BTreeMap<(u32, u64), BTreeSet<Ipv4Addr>> = BTreeMap::new();
        let mut out: BTreeMap<(u32, u64), WindowRef> = BTreeMap::new();
        for (&(sub, w, a, b), &(records, bytes)) in &self.edges {
            nodes.entry((sub, w)).or_default().extend([a, b]);
            let r = out.entry((sub, w)).or_default();
            r.edges += 1;
            r.records += records;
            r.bytes += bytes;
        }
        for (k, set) in nodes {
            out.entry(k).or_default().nodes = set.len();
        }
        out
    }
}

/// What one window's graph must look like.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WindowRef {
    /// Distinct endpoints.
    pub nodes: usize,
    /// Distinct unordered endpoint pairs.
    pub edges: usize,
    /// Records aggregated (after vantage dedup).
    pub records: u64,
    /// Total bytes, both directions.
    pub bytes: u64,
}

impl WindowRef {
    /// The same summary read off a product graph (IP facet, uncollapsed).
    pub fn of_graph(g: &CommGraph) -> WindowRef {
        let t = g.totals();
        WindowRef {
            nodes: g.node_count(),
            edges: g.edge_count(),
            records: t.conns,
            bytes: t.bytes(),
        }
    }
}

/// Count `graphs` (one subscription's windows, time order) that differ from
/// the reference; missing or surplus windows count as mismatches.
pub fn mismatches(
    reference: &BTreeMap<(u32, u64), WindowRef>,
    subscription: u32,
    graphs: &[CommGraph],
) -> u64 {
    let expected = reference.range((subscription, 0)..=(subscription, u64::MAX)).count();
    let wrong = graphs
        .iter()
        .filter(|g| {
            reference.get(&(subscription, g.window_start())) != Some(&WindowRef::of_graph(g))
        })
        .count();
    (wrong + expected.saturating_sub(graphs.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph_graph::{Facet, GraphBuilder};
    use flowlog::record::FlowKey;

    fn rec(ts: u64, a: u8, b: u8) -> ConnSummary {
        ConnSummary {
            ts,
            key: FlowKey::tcp(Ipv4Addr::new(10, 0, 0, a), 40_000, Ipv4Addr::new(10, 0, 0, b), 443),
            pkts_sent: 1,
            pkts_rcvd: 1,
            bytes_sent: 10,
            bytes_rcvd: 5,
        }
    }

    #[test]
    fn agrees_with_the_graph_builder_and_spots_a_lost_record() {
        let monitored: HashSet<Ipv4Addr> = (1..=3).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect();
        let flows = [rec(5, 1, 2), rec(9, 2, 3), rec(11, 1, 2)];
        let records: Vec<ConnSummary> = flows.iter().flat_map(|r| [*r, r.mirrored()]).collect();
        let mut o = Oracle::default();
        for r in &records {
            o.add(0, 60, Some(&monitored), r);
        }
        assert_eq!((o.records, o.deduped), (6, 3));
        let mut b = GraphBuilder::new(Facet::Ip, 0, 60).with_monitored(monitored.clone());
        b.add_all(&records);
        let reference = o.windows();
        assert_eq!(mismatches(&reference, 0, &[b.finish()]), 0);
        let mut lossy = GraphBuilder::new(Facet::Ip, 0, 60).with_monitored(monitored);
        lossy.add_all(&records[..4]);
        assert_eq!(mismatches(&reference, 0, &[lossy.finish()]), 1);
        assert_eq!(mismatches(&reference, 0, &[]), 1);
    }
}
