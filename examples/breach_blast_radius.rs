//! Breach containment: learn µsegmentation from a clean window, then replay
//! a window with an active lateral-movement attack and watch the policies
//! light up — the paper's core security scenario.
//!
//! ```sh
//! cargo run --release --example breach_blast_radius
//! ```

use commgraph::cloudsim::attack::{AttackKind, AttackScenario};
use commgraph::cloudsim::{ClusterPreset, SimConfig, Simulator};
use commgraph::segment::blast::blast_radius;
use commgraph::segment::Verdict;
use commgraph::workbench::Workbench;
use std::collections::HashSet;
use std::net::Ipv4Addr;

fn main() {
    let preset = ClusterPreset::MicroserviceBench;
    let topo = preset.topology_scaled(1.0);

    // ---- Phase 1: learn from a clean hour --------------------------------
    let mut clean_sim =
        Simulator::new(topo.clone(), preset.default_sim_config()).expect("preset is valid");
    let clean = clean_sim.collect(30);
    let monitored: HashSet<Ipv4Addr> = clean_sim
        .ground_truth()
        .ip_roles
        .keys()
        .copied()
        .filter(|ip| ip.octets()[0] == 10)
        .collect();
    let mut wb = Workbench::new(clean, monitored);
    println!(
        "learned: {} µsegments, {} allow rules from the clean window",
        wb.segmentation().len(),
        wb.policy().rule_count()
    );

    // ---- Phase 2: an attacker lands on a frontend replica ----------------
    let breached =
        topo.ip_of(topo.role_named("frontend").expect("role exists").id, 0).expect("slot 0 exists");
    println!("\nbreach: attacker controls {breached}");

    let seg = wb.segmentation().clone();
    let policy = wb.policy().clone();
    let b = blast_radius(&seg, &policy, breached).expect("breached IP is segmented");
    println!(
        "blast radius: {} of {} internal resources directly reachable ({:.0}% — was 100%)",
        b.direct,
        b.unsegmented,
        b.direct_fraction * 100.0
    );
    println!("multi-hop pivoting could reach {} resources", b.transitive);

    // ---- Phase 3: the attack plays out; policies detect it ---------------
    let attack_cfg = SimConfig {
        attacks: vec![AttackScenario {
            kind: AttackKind::LateralMovement,
            start_min: 2,
            duration_min: 20,
            breached,
            intensity: 6,
        }],
        ..preset.default_sim_config()
    };
    let mut attack_sim = Simulator::new(topo, attack_cfg).expect("preset is valid");
    let attacked = attack_sim.collect(25);
    let truth = attack_sim.ground_truth().clone();

    let violations = wb.detect(&attacked);
    let denied =
        violations.iter().filter(|v| matches!(v.verdict, Verdict::DeniedPair { .. })).count();
    let unknown = violations.len() - denied;
    println!("\nreplay: {} records checked against the learned policy", attacked.len());
    println!("  {denied} cross-segment violations (lateral probes blocked by default-deny)");
    println!("  {unknown} unknown-peer violations");

    let attack_flows = truth.attack_flows.len();
    let hits = violations
        .iter()
        .filter(|v| {
            truth.attack_flows.keys().any(|k| {
                k.local_ip == v.local_ip && k.remote_ip == v.remote_ip
                    || k.local_ip == v.remote_ip && k.remote_ip == v.local_ip
            })
        })
        .count();
    println!(
        "  attack coverage: {hits} violations map to the {attack_flows} injected attack flows"
    );
    println!(
        "  ground truth: attacker infected {} machines during the window",
        truth.infected.len()
    );
    println!("\nwith enforcement on, every flagged probe would have been dropped —");
    println!("the breach stays inside one µsegment instead of owning the subscription.");
}
