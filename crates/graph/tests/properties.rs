//! Property-based tests for graph construction and transforms.

use commgraph_graph::collapse::{collapse, NicLocalSurvivors};
use commgraph_graph::diff::diff;
use commgraph_graph::timeseries::{correlation, EdgeSeries, EdgeSeriesBuilder};
use commgraph_graph::{Facet, GraphBuilder, NodeId};
use flowlog::record::{ConnSummary, FlowKey};
use proptest::prelude::*;
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

    /// Edge time series: slot sums equal edge totals, and correlation is a
    /// bounded, symmetric score.
    #[test]
    fn timeseries_axioms(records in prop::collection::vec(arb_record(), 1..80)) {
        let mut ts = EdgeSeriesBuilder::new(Facet::Ip, 0, 60, 120);
        ts.add_all(&records);
        let mut total_series: u64 = 0;
        for (_, s) in ts.iter() {
            total_series += s.total();
            prop_assert!((0.0..=1.0).contains(&s.activity()));
            prop_assert!(s.burstiness() >= 0.0);
        }
        let expect: u64 = records.iter().map(|r| r.bytes_total()).sum();
        prop_assert_eq!(total_series, expect, "every byte lands in a slot");

        let series: Vec<&EdgeSeries> = ts.iter().map(|(_, s)| s).collect();
        if series.len() >= 2 {
            let c = correlation(series[0], series[1]);
            let c2 = correlation(series[1], series[0]);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
            prop_assert!((c - c2).abs() < 1e-12);
        }
    }
}
