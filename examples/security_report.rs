//! The one-shot subscription security report — what the paper's SaaS tier
//! (Figure 8) would deliver to a customer at the end of every window.
//!
//! ```sh
//! cargo run --release --example security_report
//! ```

use commgraph::cloudsim::{ClusterPreset, Simulator};
use commgraph::report::security_report;
use commgraph::workbench::Workbench;
use std::collections::HashSet;
use std::net::Ipv4Addr;

fn main() {
    let preset = ClusterPreset::K8sPaas;
    let topo = preset.topology_scaled(0.5);
    let mut sim = Simulator::new(topo, preset.default_sim_config()).expect("preset is valid");
    let records = sim.collect(20);
    let monitored: HashSet<Ipv4Addr> =
        sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();

    let mut wb = Workbench::new(records, monitored);
    let report = security_report(&mut wb);

    println!("{}", report.to_text());
    let path = std::env::temp_dir().join("commgraph_security_report.json");
    std::fs::write(&path, report.to_json()).expect("write report");
    println!("machine-readable copy: {}", path.display());
}
