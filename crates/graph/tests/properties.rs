//! Property-based tests for graph construction and transforms.

use commgraph_graph::collapse::{collapse, NicLocalSurvivors};
use commgraph_graph::diff::diff;
use commgraph_graph::timeseries::{correlation, edge_series};
use commgraph_graph::{CommGraph, Facet, GraphBuilder, NodeId, WindowedBuilder};
use flowlog::record::{ConnSummary, FlowKey};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn arb_record() -> impl Strategy<Value = ConnSummary> {
    (0u64..7200, 0u8..12, 0u8..12, 1u16..1024, 1u64..50, 1u64..200_000).prop_map(
        |(ts, l, r, port, pkts, bytes)| ConnSummary {
            ts,
            key: FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, l.wrapping_add(1)),
                40_000 + port,
                Ipv4Addr::new(10, 0, 1, r.wrapping_add(1)),
                (port % 7) * 100 + 22,
            ),
            pkts_sent: pkts,
            pkts_rcvd: pkts / 2,
            bytes_sent: bytes,
            bytes_rcvd: bytes / 3,
        },
    )
}

/// A record at any second of minutes 0..120 between two of six hosts: a
/// self-loop when they coincide, and each pair reported from either end.
fn arb_minute_record() -> impl Strategy<Value = ConnSummary> {
    (0u64..7200, 1u8..7, 1u8..7, 1u64..200_000).prop_map(|(ts, l, r, bytes)| ConnSummary {
        ts,
        key: FlowKey::tcp(Ipv4Addr::new(10, 0, 0, l), 40_000, Ipv4Addr::new(10, 0, 0, r), 443),
        pkts_sent: 1,
        pkts_rcvd: 1,
        bytes_sent: bytes,
        bytes_rcvd: bytes / 3,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Builder conservation: graph totals equal the record stream's totals
    /// (no dedup configured).
    #[test]
    fn builder_conserves_traffic(records in prop::collection::vec(arb_record(), 1..120)) {
        let mut b = GraphBuilder::new(Facet::Ip, 0, 7200);
        b.add_all(&records);
        let g = b.finish();
        let bytes: u64 = records.iter().map(|r| r.bytes_total()).sum();
        let pkts: u64 = records.iter().map(|r| r.pkts_total()).sum();
        prop_assert_eq!(g.totals().bytes(), bytes);
        prop_assert_eq!(g.totals().pkts(), pkts);
        prop_assert_eq!(g.totals().conns, records.len() as u64);
    }

    /// Record order never matters: any permutation builds the same graph.
    #[test]
    fn builder_is_order_invariant(records in prop::collection::vec(arb_record(), 1..60)) {
        let build = |recs: &[ConnSummary]| {
            let mut b = GraphBuilder::new(Facet::Ip, 0, 7200);
            b.add_all(recs);
            b.finish()
        };
        let g1 = build(&records);
        let mut reversed = records.clone();
        reversed.reverse();
        let g2 = build(&reversed);
        prop_assert_eq!(g1.node_count(), g2.node_count());
        prop_assert_eq!(g1.edge_count(), g2.edge_count());
        prop_assert_eq!(g1.totals(), g2.totals());
        prop_assert_eq!(g1.nodes(), g2.nodes());
        for i in 0..g1.node_count() as u32 {
            prop_assert_eq!(g1.neighbors(i), g2.neighbors(i));
            for (e1, e2) in g1.neighbors(i).iter().zip(g2.neighbors(i)) {
                prop_assert_eq!(g1.ports(i, e1), g2.ports(i, e2), "ports, whatever the order");
            }
        }
    }

    /// Collapsing at any threshold with any protection conserves totals.
    #[test]
    fn collapse_always_conserves(
        records in prop::collection::vec(arb_record(), 1..100),
        threshold in 0.0f64..=1.0,
        protect_low in any::<bool>(),
    ) {
        let mut b = GraphBuilder::new(Facet::Ip, 0, 7200);
        b.add_all(&records);
        let g = b.finish();
        let c = collapse(&g, threshold, |n| {
            protect_low && n.ip().map(|ip| ip.octets()[3] < 6).unwrap_or(false)
        });
        // Direction splits are orientation-relative and may flip when nodes
        // merge into Other (which sorts after Ip); undirected totals are the
        // invariant.
        prop_assert_eq!(c.totals().bytes(), g.totals().bytes());
        prop_assert_eq!(c.totals().pkts(), g.totals().pkts());
        prop_assert_eq!(c.totals().conns, g.totals().conns);
        prop_assert!(c.node_count() <= g.node_count());
        // An edge keeps its ports exactly when both its ends survive.
        for i in 0..c.node_count() as u32 {
            for e in c.neighbors(i) {
                let (a, b) = (c.node(i), c.node(e.node));
                if a == NodeId::Other || b == NodeId::Other {
                    prop_assert!(c.ports(i, e).is_empty(), "{} -- {}", a, b);
                    continue;
                }
                let (ga, gb) = (g.index_of(&a).expect("kept"), g.index_of(&b).expect("kept"));
                let ge = g.neighbors(ga).iter().find(|e| e.node == gb).expect("kept 1:1");
                prop_assert_eq!(e.stats, ge.stats);
                prop_assert_eq!(c.ports(i, e), g.ports(ga, ge));
            }
        }
    }

    /// The per-NIC survivor tracker only ever shrinks the graph, and keeps
    /// every reporting (local) endpoint.
    #[test]
    fn survivor_trackers_are_sound(records in prop::collection::vec(arb_record(), 1..100)) {
        let mut nic = NicLocalSurvivors::new(Facet::Ip, 0.001);
        nic.add_interval(&records);
        let mut b = GraphBuilder::new(Facet::Ip, 0, 7200);
        b.add_all(&records);
        let g = b.finish();
        let collapsed = nic.collapse(&g);
        prop_assert_eq!(collapsed.totals().bytes(), g.totals().bytes());
        prop_assert_eq!(collapsed.totals().conns, g.totals().conns);
        prop_assert!(collapsed.node_count() <= g.node_count());
        for r in &records {
            prop_assert!(nic.is_survivor(&commgraph_graph::NodeId::Ip(r.key.local_ip)));
        }
    }

    /// Diff axioms: self-diff is quiet; diff(a,b) mirrors diff(b,a).
    #[test]
    fn diff_axioms(
        r1 in prop::collection::vec(arb_record(), 1..60),
        r2 in prop::collection::vec(arb_record(), 1..60),
    ) {
        let build = |recs: &[ConnSummary]| {
            let mut b = GraphBuilder::new(Facet::Ip, 0, 7200);
            b.add_all(recs);
            b.finish()
        };
        let (a, b) = (build(&r1), build(&r2));
        prop_assert!(diff(&a, &a, 2.0).is_quiet());
        let fwd = diff(&a, &b, 2.0);
        let back = diff(&b, &a, 2.0);
        prop_assert_eq!(fwd.added_nodes, back.removed_nodes);
        prop_assert_eq!(fwd.removed_edges, back.added_edges);
        prop_assert!((fwd.edge_jaccard - back.edge_jaccard).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&fwd.edge_jaccard));
    }

    /// Edge time series from the roll's minute graphs: slot for slot what a
    /// per-record `(minute, endpoints)` tally sums, the whole-run graph's
    /// edge bytes in total, and a bounded, symmetric correlation.
    #[test]
    fn timeseries_axioms(records in prop::collection::vec(arb_minute_record(), 1..120)) {
        // The roll takes jitter inside a window, not behind it: minutes in
        // order, the drawn order within each.
        let mut records = records;
        records.sort_by_key(|r| r.ts / 60);
        let mut roll = WindowedBuilder::new(60);
        let mut minutes: Vec<CommGraph> = records.iter().filter_map(|r| roll.add(r).1).collect();
        minutes.extend(roll.finish());
        let series = edge_series(&minutes, 0, 120);

        let mut reference = BTreeMap::new();
        for r in &records {
            let (a, b) = (NodeId::Ip(r.key.local_ip), NodeId::Ip(r.key.remote_ip));
            *reference.entry((r.ts / 60, (a.min(b), a.max(b)))).or_insert(0) += r.bytes_total();
        }
        let slots = series.iter().flat_map(|(edge, s)| {
            s.bytes.iter().enumerate().map(move |(minute, b)| ((minute as u64, *edge), *b))
        });
        prop_assert_eq!(slots.filter(|(_, b)| *b > 0).collect::<BTreeMap<_, _>>(), reference);
        prop_assert!(series.values().all(|s| s.bytes.len() == 120 && s.burstiness() >= 0.0));

        let mut whole = GraphBuilder::new(Facet::Ip, 0, 7200);
        whole.add_all(&records);
        let whole = whole.finish();
        prop_assert_eq!(whole.edge_count(), series.len());
        for ((a, b), s) in &series {
            let (a, b) = (whole.index_of(a).expect("node"), whole.index_of(b).expect("node"));
            prop_assert_eq!(whole.edge(a, b).expect("edge").bytes(), s.total());
        }
        for (a, b) in series.values().flat_map(|a| series.values().map(move |b| (a, b))) {
            let c = correlation(a, b);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
            prop_assert!((c - correlation(b, a)).abs() < 1e-12);
        }
    }
}
