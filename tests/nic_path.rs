//! Figure 7 end-to-end: route simulated traffic through per-VM smartNIC
//! flow tables + host agents, and verify that the telemetry coming out of
//! the NIC path builds the same communication graph as the direct records.

use commgraph::cloudsim::{ClusterPreset, Simulator};
use commgraph::flowlog::nic::{Direction, HostAgent};
use commgraph::flowlog::record::ConnSummary;
use commgraph::graph::{Adjacent, Facet, GraphBuilder};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Replay each record as TX/RX packet observations on the reporting VM's
/// NIC, pull agents every minute, and collect the re-aggregated summaries.
fn through_nic_path(records: &[ConnSummary], capacity: usize) -> Vec<ConnSummary> {
    let mut agents: HashMap<Ipv4Addr, HostAgent> = HashMap::new();
    let mut out = Vec::new();
    let mut last_minute = 0;
    for r in records {
        // Poll all agents when the clock advances to a new minute.
        if r.ts > last_minute {
            for agent in agents.values_mut() {
                out.extend(agent.poll(r.ts));
            }
            last_minute = r.ts;
        }
        let agent =
            agents.entry(r.key.local_ip).or_insert_with(|| HostAgent::new(capacity, 60, 600));
        if r.pkts_sent > 0 {
            agent.observe(r.ts, r.key, Direction::Tx, r.pkts_sent, r.bytes_sent);
        }
        if r.pkts_rcvd > 0 {
            agent.observe(r.ts, r.key, Direction::Rx, r.pkts_rcvd, r.bytes_rcvd);
        }
    }
    for agent in agents.values_mut() {
        out.extend(agent.flush(last_minute + 60));
    }
    out
}

#[test]
fn nic_path_preserves_the_graph() {
    let preset = ClusterPreset::MicroserviceBench;
    let mut sim = Simulator::new(preset.topology_scaled(0.25), preset.default_sim_config())
        .expect("valid preset");
    let records = sim.collect(5);

    let nic_records = through_nic_path(&records, 1 << 16);

    // Totals are conserved exactly.
    let direct_bytes: u64 = records.iter().map(|r| r.bytes_total()).sum();
    let nic_bytes: u64 = nic_records.iter().map(|r| r.bytes_total()).sum();
    assert_eq!(nic_bytes, direct_bytes, "no bytes lost in the NIC path");

    // And the IP graph is identical (same nodes, edges, per-edge bytes).
    let build = |recs: &[ConnSummary]| {
        let mut b = GraphBuilder::new(Facet::Ip, 0, 3600);
        b.add_all(recs);
        b.finish()
    };
    let direct = build(&records);
    let via_nic = build(&nic_records);
    assert_eq!(via_nic.node_count(), direct.node_count());
    assert_eq!(via_nic.edge_count(), direct.edge_count());
    assert_eq!(via_nic.totals().bytes(), direct.totals().bytes());
    for i in 0..direct.node_count() as u32 {
        for &Adjacent { node: j, stats, .. } in direct.neighbors(i) {
            let ni = via_nic.index_of(&direct.node(i)).expect("node present");
            let nj = via_nic.index_of(&direct.node(j)).expect("node present");
            let nic_stats = via_nic.edge(ni, nj).expect("edge present");
            assert_eq!(nic_stats.bytes(), stats.bytes(), "edge bytes match");
            assert_eq!(nic_stats.pkts(), stats.pkts(), "edge packets match");
        }
    }
}

#[test]
fn nic_path_survives_tiny_flow_tables() {
    // A flow table far smaller than the concurrent flow count forces
    // constant evictions; the early-flush semantics must still conserve
    // every byte.
    let preset = ClusterPreset::MicroserviceBench;
    let mut sim = Simulator::new(preset.topology_scaled(0.25), preset.default_sim_config())
        .expect("valid preset");
    let records = sim.collect(3);

    let nic_records = through_nic_path(&records, 32);
    let direct_bytes: u64 = records.iter().map(|r| r.bytes_total()).sum();
    let nic_bytes: u64 = nic_records.iter().map(|r| r.bytes_total()).sum();
    assert_eq!(nic_bytes, direct_bytes, "evictions must flush, not drop");
    assert!(
        nic_records.len() >= records.len(),
        "evictions can only split summaries, never merge them away"
    );
}
