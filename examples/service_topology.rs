//! Multi-faceted views of one telemetry stream: the same records rendered
//! as an IP graph, an IP-port graph, and a *service* graph — plus per-edge
//! time series showing which conversations breathe together.
//!
//! The paper's point about facets: "one communication trace may be
//! represented as many different communication graphs … choosing which
//! graph to construct requires networking insights."
//!
//! ```sh
//! cargo run --release --example service_topology
//! ```

use commgraph::cloudsim::{ClusterPreset, Simulator};
use commgraph::graph::timeseries::EdgeSeriesBuilder;
use commgraph::graph::{Adjacent, Facet, GraphBuilder};
use std::collections::HashMap;
use std::net::Ipv4Addr;

fn main() {
    let preset = ClusterPreset::MicroserviceBench;
    let topo = preset.topology_scaled(1.0);
    let mut sim = Simulator::new(topo, preset.default_sim_config()).expect("preset is valid");
    let minutes = 15;
    let records = sim.collect(minutes);
    let truth = sim.ground_truth().clone();
    println!("{} connection summaries over {minutes} minutes\n", records.len());

    // ---- One stream, three graphs ----------------------------------------
    // The service facet resolves IPs to roles — in production this mapping
    // comes from the deployment inventory; here, from simulator ground truth.
    let resolver: HashMap<Ipv4Addr, u32> =
        truth.ip_roles.iter().map(|(ip, role)| (*ip, role.0 as u32)).collect();
    let names: Vec<String> = truth.role_names.clone();
    let facets: Vec<(&str, Facet)> = vec![
        ("IP graph", Facet::Ip),
        ("IP-port graph", Facet::IpPort),
        ("service graph", Facet::Service { resolver, names }),
    ];
    println!("{:<16} {:>10} {:>10}   view", "facet", "nodes", "edges");
    let mut service_graph = None;
    for (label, facet) in facets {
        let mut b = GraphBuilder::new(facet, 0, minutes * 60);
        b.add_all(&records);
        let g = b.finish();
        let view = match label {
            "IP graph" => "one node per VM — segmentation's working set",
            "IP-port graph" => "separates services sharing a host — huge",
            _ => "one node per role — the executive summary",
        };
        println!("{:<16} {:>10} {:>10}   {}", label, g.node_count(), g.edge_count(), view);
        if label == "service graph" {
            service_graph = Some(g);
        }
    }

    // ---- The service graph, spelled out -----------------------------------
    let g = service_graph.expect("built above");
    println!("\nheaviest service conversations:");
    let mut edges: Vec<(u64, String, String)> = Vec::new();
    let facet = Facet::Service { resolver: HashMap::new(), names: truth.role_names.clone() };
    for i in 0..g.node_count() as u32 {
        for &Adjacent { node: j, stats, .. } in g.neighbors(i) {
            if j >= i {
                edges.push((stats.bytes(), facet.label(&g.node(i)), facet.label(&g.node(j))));
            }
        }
    }
    edges.sort_by_key(|(b, _, _)| std::cmp::Reverse(*b));
    for (bytes, a, b) in edges.iter().take(8) {
        println!("  {:<18} <-> {:<18} {:>9.1} MB", a, b, *bytes as f64 / 1e6);
    }

    // ---- Per-edge time series: who breathes together? ---------------------
    let mut ts = EdgeSeriesBuilder::new(Facet::Ip, 0, 60, minutes as usize);
    ts.add_all(&records);
    println!("\nper-edge time series ({} edges tracked):", ts.edge_count());
    let mut heavy: Vec<_> = ts.iter().map(|(k, s)| (s.total(), *k, s.clone())).collect();
    heavy.sort_by_key(|(t, _, _)| std::cmp::Reverse(*t));
    for (total, key, series) in heavy.iter().take(3) {
        let partner = ts.most_correlated(key, 1_000_000);
        println!(
            "  {} <-> {}: {:.1} MB, activity {:.0}%, burstiness {:.2}{}",
            key.0,
            key.1,
            *total as f64 / 1e6,
            series.activity() * 100.0,
            series.burstiness(),
            partner
                .map(|((a, b), c)| format!(", breathes with {a}<->{b} (r = {c:.2})"))
                .unwrap_or_default()
        );
    }
}
