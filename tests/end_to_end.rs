//! Integration tests spanning the whole stack: simulator → telemetry →
//! graphs → algorithms → segmentation → detection → analytics.

use commgraph::algos::jaccard::jaccard_matrix_of_sets;
use commgraph::algos::louvain::{hierarchical_louvain, HierarchicalConfig};
use commgraph::algos::metrics::adjusted_rand_index;
use commgraph::algos::roles::{directional_neighbor_sets, infer_roles, SegmentationMethod};
use commgraph::algos::wgraph::WeightedGraph;
use commgraph::cloudsim::attack::{AttackKind, AttackScenario};
use commgraph::cloudsim::{ClusterPreset, SimConfig, Simulator};
use commgraph::flowlog::provider::ProviderPreset;
use commgraph::flowlog::sampling::Sampler;
use commgraph::pipeline::{Pipeline, PipelineConfig};
use commgraph::workbench::Workbench;
use std::collections::HashSet;
use std::net::Ipv4Addr;

fn monitored_of(sim: &Simulator) -> HashSet<Ipv4Addr> {
    sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect()
}

/// The full security arc: learn on a clean window, detect a breach window.
#[test]
fn learn_then_detect_lateral_movement() {
    let preset = ClusterPreset::MicroserviceBench;
    let topo = preset.topology_scaled(0.5);

    let mut clean_sim =
        Simulator::new(topo.clone(), preset.default_sim_config()).expect("valid preset");
    let clean = clean_sim.collect(10);
    let monitored = monitored_of(&clean_sim);
    let mut wb = Workbench::new(clean, monitored);
    assert!(wb.policy().rule_count() > 0, "clean window must yield allow rules");

    let breached =
        topo.ip_of(topo.role_named("frontend").expect("role").id, 0).expect("slot 0 exists");
    let cfg = SimConfig {
        attacks: vec![AttackScenario {
            kind: AttackKind::LateralMovement,
            start_min: 1,
            duration_min: 8,
            breached,
            intensity: 6,
        }],
        ..preset.default_sim_config()
    };
    let mut attack_sim = Simulator::new(topo, cfg).expect("valid preset");
    let attacked = attack_sim.collect(10);
    let truth = attack_sim.ground_truth().clone();

    let violations = wb.detect(&attacked);
    assert!(!violations.is_empty(), "lateral movement must trip the policy");

    // Most attack flows hit unusual ports/peers and must be flagged.
    let attack_recs = attacked.iter().filter(|r| truth.is_attack(&r.key)).count();
    let flagged_attack_pairs = violations
        .iter()
        .filter(|v| {
            truth.attack_flows.keys().any(|k| {
                k.local_ip == v.local_ip && k.remote_ip == v.remote_ip
                    || k.local_ip == v.remote_ip && k.remote_ip == v.local_ip
            })
        })
        .count();
    assert!(
        flagged_attack_pairs as f64 >= 0.5 * attack_recs as f64,
        "expected most of {attack_recs} attack records flagged, got {flagged_attack_pairs}"
    );
}

/// Segmentation quality on the paper's default cluster: the paper's method
/// must recover the simulated role structure far better than chance.
#[test]
fn role_inference_recovers_ground_truth() {
    let preset = ClusterPreset::K8sPaas;
    let topo = preset.topology_scaled(0.3);
    let mut sim = Simulator::new(topo, preset.default_sim_config()).expect("valid preset");
    let records = sim.collect(8);
    let truth = sim.ground_truth().clone();
    let monitored = monitored_of(&sim);

    let mut wb = Workbench::new(records, monitored);
    let labels = wb.roles().labels.clone();
    let g = wb.ip_graph();
    let truth_labels: Vec<usize> = g
        .nodes()
        .iter()
        .map(|n| {
            n.ip().and_then(|ip| truth.role_of(ip)).map(|r| r.0 as usize).unwrap_or(usize::MAX >> 1)
        })
        .collect();
    let ari = adjusted_rand_index(&labels, &truth_labels).expect("aligned");
    assert!(ari > 0.5, "segmentation should track true roles, ARI = {ari}");
}

/// On a real hubbed graph (every pod talks to the K8s apiserver, so one
/// token has hundreds of holders) the sparse clique `infer_roles` clusters
/// must give the labels and the modularity of the dense all-pairs matrix,
/// thresholded and clustered the same way — to the last bit.
#[test]
fn role_inference_matches_dense_matrix_reference_on_hubbed_graph() {
    let preset = ClusterPreset::K8sPaas;
    let topo = preset.topology_scaled(0.3);
    let mut sim = Simulator::new(topo, preset.default_sim_config()).expect("valid preset");
    let records = sim.collect(8);
    let mut wb = Workbench::new(records, monitored_of(&sim));
    let g = wb.ip_graph();

    let sets = directional_neighbor_sets(g);
    let mut holders = vec![0usize; 3 * sets.len()];
    sets.iter().flatten().for_each(|&t| holders[t as usize] += 1);
    let hub = holders.into_iter().max().unwrap_or(0);
    assert!(hub * 3 > sets.len(), "expected a hub token, widest has {hub} of {}", sets.len());

    let dense = WeightedGraph::from_similarity(&jaccard_matrix_of_sets(&sets), 0.1);
    let reference = hierarchical_louvain(&dense, HierarchicalConfig::default());
    let got = infer_roles(g, &SegmentationMethod::paper_default());
    assert_eq!(got.labels, reference.labels);
    assert_eq!(got.clustering_modularity.to_bits(), reference.modularity.to_bits());
}

/// Table 1 rate shapes at test scale: Portal is orders of magnitude quieter
/// than the microservice mesh, and KQuery's all-to-all shuffle makes its
/// record rate grow *quadratically* with cluster size (which is why, at
/// full scale, it dwarfs everything at 2.3M records/min).
#[test]
fn record_rates_shape_like_table1() {
    let rate_of = |preset: ClusterPreset, scale: f64| {
        let topo = preset.topology_scaled(scale);
        let mut sim = Simulator::new(topo, preset.default_sim_config()).expect("valid");
        sim.collect(3).len() as f64 / 3.0
    };
    let portal = rate_of(ClusterPreset::Portal, 0.05);
    let usvc = rate_of(ClusterPreset::MicroserviceBench, 0.05);
    assert!(portal * 10.0 < usvc, "Portal ({portal}) must be far quieter than uSvc ({usvc})");

    let kq_small = rate_of(ClusterPreset::KQuery, 0.04);
    let kq_double = rate_of(ClusterPreset::KQuery, 0.08);
    assert!(
        kq_double > kq_small * 2.5,
        "KQuery shuffle scales superlinearly: {kq_small} -> {kq_double}"
    );
}

/// GCP-style sampling plus Horvitz–Thompson upscaling approximates the
/// unsampled byte totals.
#[test]
fn sampled_telemetry_estimates_true_volume() {
    let preset = ClusterPreset::K8sPaas;
    let mut sim = Simulator::new(preset.topology_scaled(0.2), preset.default_sim_config())
        .expect("valid preset");
    let records = sim.collect(5);
    let true_bytes: u64 = records.iter().map(|r| r.bytes_total()).sum();

    let gcp = ProviderPreset::gcp();
    let sampler = Sampler::new(gcp.sampling, 99).expect("valid sampling");
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut est = 0f64;
    for r in &records {
        if let Some(s) = sampler.sample(r, &mut rng) {
            est += sampler.upscale(&s).bytes_total() as f64;
        }
    }
    let rel_err = (est - true_bytes as f64).abs() / true_bytes as f64;
    assert!(rel_err < 0.1, "upscaled estimate within 10%: err = {rel_err}");
}

/// The streaming pipeline yields ordered hourly windows with sane rates.
#[test]
fn pipeline_produces_hourly_sequence() {
    let preset = ClusterPreset::MicroserviceBench;
    let mut sim = Simulator::new(preset.topology_scaled(0.2), preset.default_sim_config())
        .expect("valid preset");
    let monitored = monitored_of(&sim);
    let mut pipeline = Pipeline::new(PipelineConfig {
        window_len: 3600,
        monitored: Some(monitored),
        ..Default::default()
    });
    sim.run(125, |_, batch| pipeline.ingest(batch));
    let out = pipeline.finish().expect("ordered windows");
    assert_eq!(out.sequence.len(), 3, "125 minutes span three hourly windows");
    // Conservation: in = kept + deduped + dropped, and kept = Σ graphs' conns.
    assert_eq!(out.total_records, out.kept_records + out.deduped_records + out.dropped_records);
    let in_graphs: u64 = out.sequence.graphs().iter().map(|g| g.totals().conns).sum();
    assert_eq!(out.kept_records, in_graphs);
    assert!(out.deduped_records > 0 && out.dropped_records == 0, "in-order, double-reported");
    let p = out.sequence.persistence();
    assert!(
        p.mean_edge_jaccard > 0.5,
        "steady workload must be structurally persistent: {}",
        p.mean_edge_jaccard
    );
}

/// Same seed in, identical analysis out — end to end.
#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let preset = ClusterPreset::MicroserviceBench;
        let mut sim = Simulator::new(preset.topology_scaled(0.2), preset.default_sim_config())
            .expect("valid preset");
        let records = sim.collect(5);
        let monitored = monitored_of(&sim);
        let mut wb = Workbench::new(records, monitored);
        (
            wb.ip_graph().summary_json(5).to_string(),
            wb.roles().labels.clone(),
            wb.policy().rule_count(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
