//! Cross-crate property-based tests: invariants that must hold over
//! arbitrary simulated workloads, not just hand-picked fixtures.

use commgraph::analytics::sharded::{ShardedConfig, ShardedEngine};
use commgraph::analytics::EngineStats;
use commgraph::cloudsim::roles::RoleKind;
use commgraph::cloudsim::topology::TopologyBuilder;
use commgraph::cloudsim::traffic::TrafficProfile;
use commgraph::cloudsim::{SimConfig, Simulator};
use commgraph::flowlog::record::ConnSummary;
use commgraph::flowlog::time::bucket_start;
use commgraph::graph::builder::{survives_vantage_dedup, Inventory};
use commgraph::graph::collapse::{collapse, collapse_default};
use commgraph::graph::{CommGraph, EdgeStats, Facet, GraphBuilder, NodeId};
use commgraph::obs;
use commgraph::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use commgraph::segment::policy::SegmentPolicy;
use commgraph::segment::{Segmentation, ViolationDetector};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;

/// A small random-but-valid topology.
fn arb_topology() -> impl Strategy<Value = commgraph::cloudsim::Topology> {
    (
        2usize..6,    // frontend replicas
        2usize..8,    // backend replicas
        1usize..4,    // datastore replicas
        1usize..30,   // external clients
        1.0f64..40.0, // fe->be rate
    )
        .prop_map(|(fe_n, be_n, db_n, ext_n, rate)| {
            let mut b = TopologyBuilder::new("prop", 33);
            let fe = b.role("fe", RoleKind::Frontend, fe_n, vec![443]);
            let be = b.role("be", RoleKind::Service, be_n, vec![8080]);
            let db = b.role("db", RoleKind::Datastore, db_n, vec![5432]);
            let ext = b.role("ext", RoleKind::ExternalClient, ext_n, vec![]);
            b.connect(ext, fe, TrafficProfile::rpc(2.0, 400.0, 9_000.0));
            b.connect(fe, be, TrafficProfile::rpc(rate, 500.0, 3_000.0));
            b.connect(be, db, TrafficProfile::bulk(1.5, 20_000.0, 90_000.0));
            b.build().expect("generated topology is valid")
        })
}

/// Everything observable about one window's graph: its start, its nodes,
/// and every edge from both ends with its oriented stats and service ports.
type Fingerprint = (u64, Vec<NodeId>, Vec<Vec<(u32, EdgeStats, Vec<u16>)>>);

fn fingerprints(graphs: &[CommGraph]) -> Vec<Fingerprint> {
    let edges = |g: &CommGraph, i| -> Vec<_> {
        g.neighbors(i).iter().map(|e| (e.node, e.stats, g.ports(i, e).to_vec())).collect()
    };
    let adj = |g: &CommGraph| (0..g.node_count() as u32).map(|i| edges(g, i)).collect();
    graphs.iter().map(|g| (g.window_start(), g.nodes().to_vec(), adj(g))).collect()
}

/// Two-minute windows, so a few simulated minutes roll several times.
const WINDOW: u64 = 120;

/// The reference: one `GraphBuilder` per window over all of `records`.
fn one_builder_per_window(records: &[ConnSummary], monitored: &Inventory) -> Vec<Fingerprint> {
    let mut builders: BTreeMap<u64, GraphBuilder> = BTreeMap::new();
    for r in records {
        let w = bucket_start(r.ts, WINDOW);
        let fresh = || GraphBuilder::new(Facet::Ip, w, WINDOW).with_monitored(monitored.clone());
        builders.entry(w).or_insert_with(fresh).add(r);
    }
    builders.into_values().map(|b| fingerprints(&[b.finish()]).remove(0)).collect()
}

/// The roll's client: `records` through a `Pipeline`, conservation asserted.
fn through_pipeline(records: &[ConnSummary], monitored: &HashSet<Ipv4Addr>) -> PipelineOutput {
    let mut p = Pipeline::new(PipelineConfig {
        window_len: WINDOW,
        monitored: Some(monitored.clone()),
        ..Default::default()
    });
    records.chunks(997).for_each(|batch| p.ingest(batch));
    let out = p.finish().expect("windows in order");
    assert_eq!(out.total_records, out.kept_records + out.deduped_records + out.dropped_records);
    let in_graphs: u64 = out.sequence.graphs().iter().map(|g| g.totals().conns).sum();
    assert_eq!(out.kept_records, in_graphs);
    out
}

/// The shard table: `records` as one subscription of a `ShardedEngine`,
/// its late records counted on the `late` outcome as in its stats.
fn through_engine(
    records: &[ConnSummary],
    monitored: &HashSet<Ipv4Addr>,
    shards: usize,
) -> (Vec<Fingerprint>, EngineStats) {
    let registry = std::sync::Arc::new(obs::Registry::new());
    let cfg = ShardedConfig {
        shards,
        window_len: WINDOW,
        monitored: Some(monitored.clone()),
        obs: obs::Obs::new(registry.clone()),
    };
    let mut e = ShardedEngine::new(cfg).expect("valid config");
    records.chunks(997).for_each(|batch| e.ingest("sub", batch).expect("ingest"));
    let (mut reports, _) = e.finish().expect("drain");
    let report = reports.pop().expect("one subscription");
    let late = ["sub", "late"];
    let counted =
        registry.counter(&obs::names::SUBSCRIPTION_DEDUP_DROPPED_RECORDS_TOTAL, late).get();
    assert_eq!(counted, report.stats.records_late);
    (fingerprints(&report.graphs), report.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One way for records to become graphs: on an in-order stream the
    /// roll (`Pipeline`) and the shard table (`ShardedEngine`, one shard or
    /// three) hand out the graphs of one `GraphBuilder` per window, by full
    /// fingerprint. The two window policies differ only in how late a
    /// straggler may be: the shard table keeps the window before the newest
    /// open and absorbs a straggler from it, where the roll has closed that
    /// window and drops it; a straggler from two windows back is dropped by
    /// both, and the shard table counts it late.
    #[test]
    fn roll_and_shard_table_build_the_same_graphs(
        topo in arb_topology(),
        seed in 0u64..1000,
        stragglers in 1usize..6,
    ) {
        let mut sim = Simulator::new(topo, SimConfig { seed, ..Default::default() })
            .expect("valid topology");
        let in_order = sim.collect(6);
        let monitored: HashSet<Ipv4Addr> = sim
            .ground_truth().ip_roles.keys().copied()
            .filter(|ip| ip.octets()[0] == 10).collect();
        let shared = Inventory::from(monitored.clone());

        let want = one_builder_per_window(&in_order, &shared);
        prop_assert!(want.len() >= 2, "the stream rolls");
        let out = through_pipeline(&in_order, &monitored);
        prop_assert_eq!(&fingerprints(out.sequence.graphs()), &want);
        prop_assert_eq!(out.dropped_records, 0);
        for shards in [1, 3] {
            let (graphs, stats) = through_engine(&in_order, &monitored, shards);
            prop_assert_eq!(&graphs, &want, "{} shard(s)", shards);
            prop_assert_eq!(stats.records_kept, out.kept_records);
            prop_assert_eq!(stats.records_in - stats.records_kept, out.deduped_records);
        }

        // Stragglers after the last window opened: the first records of the
        // window before it, and of the window two before it.
        let newest = in_order.iter().map(|r| bucket_start(r.ts, WINDOW)).max().unwrap_or(0);
        let behind = |windows: u64| -> Vec<ConnSummary> {
            let from = |r: &&ConnSummary| bucket_start(r.ts, WINDOW) + windows * WINDOW == newest;
            in_order.iter().filter(from).take(stragglers).copied().collect()
        };
        let (one_back, two_back) = (behind(1), behind(2));
        prop_assert!(!one_back.is_empty(), "the stream spans the window before the newest");
        let straggling = [in_order.as_slice(), &one_back, &two_back].concat();
        let out = through_pipeline(&straggling, &monitored);
        prop_assert_eq!(&fingerprints(out.sequence.graphs()), &want, "the roll drops them all");
        prop_assert_eq!(out.dropped_records, (one_back.len() + two_back.len()) as u64);
        let (graphs, stats) = through_engine(&straggling, &monitored, 3);
        let absorbed = one_builder_per_window(&[in_order.as_slice(), &one_back].concat(), &shared);
        prop_assert_eq!(&graphs, &absorbed, "the shard table absorbs one window back");
        prop_assert_eq!(stats.records_late, two_back.len() as u64, "and drops two back as late");
        let surviving = one_back.iter().filter(|r| survives_vantage_dedup(&shared, r)).count();
        prop_assert_eq!(stats.records_kept - out.kept_records, surviving as u64);
        let deduped = out.deduped_records + (one_back.len() - surviving) as u64;
        prop_assert_eq!(stats.records_in, stats.records_kept + deduped + stats.records_late);
    }

    /// Graph construction conserves traffic: the deduped record stream's
    /// bytes equal the graph's edge totals.
    #[test]
    fn graph_totals_match_record_stream(topo in arb_topology(), seed in 0u64..1000) {
        let mut sim = Simulator::new(topo, SimConfig { seed, ..Default::default() })
            .expect("valid topology");
        let records = sim.collect(4);
        let monitored: HashSet<Ipv4Addr> = sim
            .ground_truth().ip_roles.keys().copied()
            .filter(|ip| ip.octets()[0] == 10).collect();
        let mut b = GraphBuilder::new(Facet::Ip, 0, 4 * 60).with_monitored(monitored.clone());
        b.add_all(&records);
        let g = b.finish();

        // Expected: each flow counted once (internal flows are reported twice).
        let mut expect = 0u64;
        for r in &records {
            let both = monitored.contains(&r.key.local_ip)
                && monitored.contains(&r.key.remote_ip);
            if !both || r.key.is_canonical() {
                expect += r.bytes_total();
            }
        }
        prop_assert_eq!(g.totals().bytes(), expect);
    }

    /// Heavy-hitter collapsing never changes whole-graph traffic totals and
    /// never grows the graph, at any threshold.
    #[test]
    fn collapse_conserves_and_shrinks(
        topo in arb_topology(),
        seed in 0u64..1000,
        threshold in 0.0f64..=0.3,
    ) {
        let mut sim = Simulator::new(topo, SimConfig { seed, ..Default::default() })
            .expect("valid topology");
        let records = sim.collect(3);
        let mut b = GraphBuilder::new(Facet::Ip, 0, 180);
        b.add_all(&records);
        let g = b.finish();
        let c = collapse(&g, threshold, |_| false);
        prop_assert_eq!(c.totals().bytes(), g.totals().bytes());
        prop_assert_eq!(c.totals().pkts(), g.totals().pkts());
        prop_assert_eq!(c.totals().conns, g.totals().conns);
        prop_assert!(c.node_count() <= g.node_count());
        prop_assert!(c.edge_count() <= g.edge_count());

        let d = collapse_default(&g);
        prop_assert!(d.node_count() <= g.node_count());
    }

    /// A policy learned from a window never flags that same window — on any
    /// workload, at any seed, port-scoped or not.
    #[test]
    fn learned_policy_is_self_consistent(
        topo in arb_topology(),
        seed in 0u64..1000,
        port_scoped in any::<bool>(),
    ) {
        let mut sim = Simulator::new(topo, SimConfig { seed, ..Default::default() })
            .expect("valid topology");
        let records = sim.collect(3);
        let truth = sim.ground_truth().clone();
        // Segment by true roles: every IP is in a segment.
        let mut groups: std::collections::HashMap<u16, Vec<Ipv4Addr>> = Default::default();
        for (ip, role) in &truth.ip_roles {
            groups.entry(role.0).or_default().push(*ip);
        }
        let seg = Segmentation::from_members(
            groups
                .into_iter()
                .map(|(role, ips)| (format!("r{role}"), ips, true))
                .collect(),
        );
        let policy = SegmentPolicy::learn(&records, &seg, port_scoped);
        let mut det = ViolationDetector::new(seg, policy);
        let violations = det.check_all(&records);
        prop_assert!(
            violations.is_empty(),
            "self-check must be clean, got {} violations",
            violations.len()
        );
    }

    /// Simulated records are always well-formed and timestamped in order.
    #[test]
    fn simulator_output_is_well_formed(topo in arb_topology(), seed in 0u64..1000) {
        let mut sim = Simulator::new(topo, SimConfig { seed, ..Default::default() })
            .expect("valid topology");
        let mut last_ts = 0;
        let mut total = 0usize;
        sim.run(3, |minute, batch| {
            for r in batch {
                assert!(r.is_well_formed(), "{r:?}");
                assert_eq!(r.ts, minute * 60);
                assert!(r.ts >= last_ts);
            }
            if let Some(r) = batch.last() {
                last_ts = r.ts;
            }
            total += batch.len();
        });
        prop_assert!(total > 0, "topologies with traffic must emit records");
    }
}
