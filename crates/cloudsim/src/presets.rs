//! The four reference clusters of Table 1.
//!
//! Each preset builds a topology whose *shape* matches the corresponding
//! production cluster in the paper: the number of monitored IPs, the rough
//! record rate, and the structural patterns (hub-and-spoke control planes,
//! chatty all-to-all cliques, heavy-tailed client populations) that drive
//! every downstream analysis. Absolute numbers are calibrated, not copied:
//! see EXPERIMENTS.md for paper-vs-measured tables.
//!
//! | Cluster         | #IPs monitored | records/min (paper) |
//! |-----------------|----------------|---------------------|
//! | Portal          | 4              | 332                 |
//! | µserviceBench   | 16             | 48 K                |
//! | K8s PaaS        | 390            | 68 K                |
//! | KQuery          | 1400           | 2.3 M               |

use crate::load::{LoadSchedule, LoadShape};
use crate::roles::RoleKind;
use crate::sim::SimConfig;
use crate::topology::{Topology, TopologyBuilder};
use crate::traffic::{Fanout, TrafficProfile};
use flowlog::record::Protocol;

/// Selector for the four reference clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterPreset {
    /// A geo-distributed web portal: 4 servers, thousands of external
    /// clients, tiny internal footprint.
    Portal,
    /// The microservices shopping-site benchmark with synthetic load
    /// generators (modeled on the public "Online Boutique" demo).
    MicroserviceBench,
    /// A production kubernetes-as-a-service cluster: control-plane hubs plus
    /// multi-tenant app stacks. The default cluster for the paper's analyses.
    K8sPaas,
    /// An in-memory SQL query engine: coordinator/worker architecture with
    /// all-to-all shuffle traffic.
    KQuery,
}

impl ClusterPreset {
    /// All four presets in Table 1 order.
    pub fn all() -> [ClusterPreset; 4] {
        [
            ClusterPreset::Portal,
            ClusterPreset::MicroserviceBench,
            ClusterPreset::K8sPaas,
            ClusterPreset::KQuery,
        ]
    }

    /// The cluster's display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ClusterPreset::Portal => "Portal",
            ClusterPreset::MicroserviceBench => "uServiceBench",
            ClusterPreset::K8sPaas => "K8s PaaS",
            ClusterPreset::KQuery => "KQuery",
        }
    }

    /// Paper's reported monitored-IP count, for EXPERIMENTS.md comparisons.
    pub fn paper_monitored_ips(self) -> usize {
        match self {
            ClusterPreset::Portal => 4,
            ClusterPreset::MicroserviceBench => 16,
            ClusterPreset::K8sPaas => 390,
            ClusterPreset::KQuery => 1400,
        }
    }

    /// Paper's reported records/minute, for EXPERIMENTS.md comparisons.
    pub fn paper_records_per_min(self) -> f64 {
        match self {
            ClusterPreset::Portal => 332.0,
            ClusterPreset::MicroserviceBench => 48_000.0,
            ClusterPreset::K8sPaas => 68_000.0,
            ClusterPreset::KQuery => 2_300_000.0,
        }
    }

    /// Topology with replica counts multiplied by `scale` (floored at 1).
    /// Tests use small scales; experiments use 1.0.
    pub fn topology_scaled(self, scale: f64) -> Topology {
        assert!(scale > 0.0, "scale must be positive");
        let n = |full: usize| ((full as f64 * scale).round() as usize).max(1);
        match self {
            ClusterPreset::Portal => portal(n),
            ClusterPreset::MicroserviceBench => microservice_bench(n),
            ClusterPreset::K8sPaas => k8s_paas(n),
            ClusterPreset::KQuery => kquery(n),
        }
    }

    /// A simulation config with this cluster's characteristic load pattern
    /// and a fixed seed.
    pub fn default_sim_config(self) -> SimConfig {
        let load = match self {
            // Interactive clusters breathe with the day; batch engines don't.
            ClusterPreset::Portal | ClusterPreset::K8sPaas => LoadSchedule::steady()
                .with(LoadShape::Diurnal { period_min: 1440.0, amplitude: 0.3, phase_min: 0.0 }),
            _ => LoadSchedule::steady(),
        };
        SimConfig { seed: 0x5EED ^ self.name().len() as u64, load, ..SimConfig::default() }
    }

    /// The paper's evaluation setting: like [`Self::default_sim_config`],
    /// but µserviceBench additionally carries the breach-and-attack
    /// injection the paper describes ("we use synthetic load generators and
    /// inject a wide range of attacks"). The attack traffic is what gives
    /// that cluster's IP graph its near-clique edge density.
    pub fn paper_sim_config(self, topo: &Topology) -> SimConfig {
        use crate::attack::{AttackKind, AttackScenario};
        let mut cfg = self.default_sim_config();
        if self == ClusterPreset::MicroserviceBench {
            // Slot 0 of every preset role exists at any scale, so all four
            // breach points resolve; if a foreign topology is passed in,
            // the attacks are simply not injected rather than panicking.
            let breach = |role: u16| topo.ip_of(crate::roles::RoleId(role), 0).ok();
            if let (Some(frontend), Some(loadgen), Some(payment), Some(cart)) =
                (breach(0), breach(11), breach(4), breach(1))
            {
                cfg.attacks = vec![
                    // Lateral movement from a compromised frontend replica.
                    AttackScenario {
                        kind: AttackKind::LateralMovement,
                        start_min: 5,
                        duration_min: 50,
                        breached: frontend,
                        intensity: 4,
                    },
                    // Port sweep from the (attacker-controlled) load generator.
                    AttackScenario {
                        kind: AttackKind::PortScan,
                        start_min: 10,
                        duration_min: 30,
                        breached: loadgen,
                        intensity: 120,
                    },
                    // Exfiltration from the payment service.
                    AttackScenario {
                        kind: AttackKind::Exfiltration,
                        start_min: 20,
                        duration_min: 25,
                        breached: payment,
                        intensity: 4_000_000,
                    },
                    // Low-and-slow C2 beacon from the cart service.
                    AttackScenario {
                        kind: AttackKind::C2Beacon,
                        start_min: 0,
                        duration_min: 60,
                        breached: cart,
                        intensity: 5,
                    },
                ];
            }
        }
        cfg
    }
}

/// Portal: 4 web servers, a sea of external clients.
///
/// Most clients stick to one geo-routed server (Sticky); a minority roam.
/// This yields an IP graph with thousands of nodes but only ~1.2 edges per
/// node, matching Table 1's 4K-node / 5K-edge row.
fn portal(n: impl Fn(usize) -> usize) -> Topology {
    let mut b = TopologyBuilder::new("Portal", 20);
    let fe = b.role("portal-frontend", RoleKind::Frontend, n(4), vec![443]);
    let sticky = b.role("clients-sticky", RoleKind::ExternalClient, n(4500), vec![]);
    let roaming = b.role("clients-roaming", RoleKind::ExternalClient, n(400), vec![]);
    let api = b.role("upstream-api", RoleKind::ExternalService, n(3), vec![443]);
    // The portal ships telemetry to a managed (external) ingestion endpoint,
    // so the monitored inventory is exactly the 4 web servers, as in Table 1.
    let tele = b.role("telemetry-ingest", RoleKind::ExternalService, n(1), vec![9090]);

    b.connect(sticky, fe, TrafficProfile::rpc(0.066, 600.0, 18_000.0).with_fanout(Fanout::Sticky));
    b.connect(roaming, fe, TrafficProfile::rpc(0.08, 600.0, 18_000.0));
    b.connect(fe, api, TrafficProfile::rpc(2.0, 900.0, 5_000.0));
    b.connect(fe, tele, TrafficProfile::bulk(0.3, 40_000.0, 500.0));
    b.build_unvalidated()
}

/// µserviceBench: the Online-Boutique-style microservice mesh, 16 VMs.
///
/// Dense east-west RPC traffic: far more edges than nodes in the IP graph
/// and a very high record rate relative to cluster size.
fn microservice_bench(n: impl Fn(usize) -> usize) -> Topology {
    let mut b = TopologyBuilder::new("uServiceBench", 21);
    let frontend = b.role("frontend", RoleKind::Frontend, n(2), vec![8080]);
    let cart = b.role("cartservice", RoleKind::Service, n(1), vec![7070]);
    let catalog = b.role("productcatalog", RoleKind::Service, n(2), vec![3550]);
    let currency = b.role("currencyservice", RoleKind::Service, n(2), vec![7000]);
    let payment = b.role("paymentservice", RoleKind::Service, n(1), vec![50051]);
    let shipping = b.role("shippingservice", RoleKind::Service, n(1), vec![50052]);
    let email = b.role("emailservice", RoleKind::Service, n(1), vec![5000]);
    let checkout = b.role("checkoutservice", RoleKind::Service, n(1), vec![5050]);
    let reco = b.role("recommendation", RoleKind::Service, n(2), vec![8081]);
    let ad = b.role("adservice", RoleKind::Service, n(1), vec![9555]);
    let redis = b.role("redis-cart", RoleKind::Datastore, n(1), vec![6379]);
    let loadgen = b.role("loadgenerator", RoleKind::LoadGenerator, n(1), vec![]);
    let clients = b.role("ext-clients", RoleKind::ExternalClient, n(16), vec![]);
    let extsvc = b.role("ext-apis", RoleKind::ExternalService, n(7), vec![443]);

    // User-facing entry points.
    b.connect(loadgen, frontend, TrafficProfile::rpc(2_000.0, 700.0, 24_000.0));
    b.connect(clients, frontend, TrafficProfile::rpc(10.0, 900.0, 80_000.0));
    // The boutique call graph, rates per source replica per minute.
    b.connect(frontend, catalog, TrafficProfile::rpc(2_500.0, 300.0, 3_000.0));
    b.connect(frontend, currency, TrafficProfile::rpc(2_000.0, 200.0, 400.0));
    b.connect(frontend, cart, TrafficProfile::rpc(1_500.0, 250.0, 1_200.0));
    b.connect(frontend, reco, TrafficProfile::rpc(1_000.0, 250.0, 2_000.0));
    b.connect(frontend, ad, TrafficProfile::rpc(800.0, 200.0, 900.0));
    b.connect(frontend, shipping, TrafficProfile::rpc(400.0, 300.0, 500.0));
    b.connect(frontend, checkout, TrafficProfile::rpc(300.0, 900.0, 1_500.0));
    b.connect(checkout, cart, TrafficProfile::rpc(300.0, 250.0, 1_200.0));
    b.connect(checkout, catalog, TrafficProfile::rpc(300.0, 300.0, 3_000.0));
    b.connect(checkout, currency, TrafficProfile::rpc(300.0, 200.0, 400.0));
    b.connect(checkout, payment, TrafficProfile::rpc(200.0, 600.0, 400.0));
    b.connect(checkout, shipping, TrafficProfile::rpc(200.0, 300.0, 500.0));
    b.connect(checkout, email, TrafficProfile::rpc(100.0, 1_500.0, 300.0));
    b.connect(reco, catalog, TrafficProfile::rpc(500.0, 300.0, 3_000.0));
    b.connect(cart, redis, TrafficProfile::rpc(2_000.0, 400.0, 800.0).with_continue_p(0.5));
    // Outbound dependencies (payment gateways, geo APIs, …).
    b.connect(payment, extsvc, TrafficProfile::rpc(150.0, 1_200.0, 900.0));
    b.connect(shipping, extsvc, TrafficProfile::rpc(80.0, 800.0, 1_000.0));
    b.build_unvalidated()
}

/// K8s PaaS: the paper's default cluster. Control-plane hubs every pod talks
/// to, eight tenant app stacks, shared middleware, external client traffic.
fn k8s_paas(n: impl Fn(usize) -> usize) -> Topology {
    let mut b = TopologyBuilder::new("K8s PaaS", 22);
    let apiserver = b.role("k8s-apiserver", RoleKind::ControlPlane, n(3), vec![6443]);
    let etcd = b.role("etcd", RoleKind::Datastore, n(3), vec![2379]);
    let coredns = b.role("coredns", RoleKind::ControlPlane, n(2), vec![53]);
    let ingress = b.role("ingress", RoleKind::Frontend, n(2), vec![443]);
    let telemetry = b.role("telemetry-sink", RoleKind::TelemetrySink, n(2), vec![9090]);
    let registry = b.role("registry", RoleKind::Datastore, n(2), vec![5000]);
    let queue = b.role("shared-queue", RoleKind::Datastore, n(8), vec![5672]);
    let storage = b.role("shared-storage", RoleKind::Datastore, n(32), vec![8111]);
    // Two client populations: a head of heavy API consumers (partners,
    // batch integrations) that individually clear the heavy-hitter
    // threshold, and a long tail of light interactive users that collapse
    // into OTHER — together reproducing Table 1's ~150 surviving externals.
    let heavy_clients = b.role("ext-clients-heavy", RoleKind::ExternalClient, n(150), vec![]);
    let clients = b.role("ext-clients", RoleKind::ExternalClient, n(350), vec![]);
    let extapis = b.role("ext-apis", RoleKind::ExternalService, n(12), vec![443]);

    // Eight tenants, each a web/api/db/cache stack.
    let mut tenant_roles = Vec::new();
    for t in 0..8 {
        let web = b.role(format!("tenant{t}-web"), RoleKind::Frontend, n(12), vec![8080]);
        let api = b.role(format!("tenant{t}-api"), RoleKind::Service, n(18), vec![9000]);
        let db = b.role(format!("tenant{t}-db"), RoleKind::Datastore, n(8), vec![5432]);
        let cache = b.role(format!("tenant{t}-cache"), RoleKind::Datastore, n(4), vec![6379]);
        tenant_roles.push((web, api, db, cache));
    }

    // Control-plane hub-and-spoke: every pod keeps an apiserver watch and
    // ships telemetry; this is what creates the hub rows/columns in the
    // adjacency matrix (Figure 4).
    let all_pod_roles: Vec<_> = tenant_roles
        .iter()
        .flat_map(|&(w, a, d, c)| [w, a, d, c])
        .chain([ingress, queue, storage, registry])
        .collect();
    for &r in &all_pod_roles {
        b.connect(r, apiserver, TrafficProfile::bulk(0.05, 2_000.0, 6_000.0).with_continue_p(0.9));
        b.connect(r, telemetry, TrafficProfile::rpc(1.0, 15_000.0, 300.0));
        b.connect(r, coredns, TrafficProfile::rpc(2.0, 120.0, 240.0).with_proto(Protocol::Udp));
    }
    b.connect(apiserver, etcd, TrafficProfile::bulk(5.0, 30_000.0, 60_000.0));

    // Tenant data paths.
    for &(web, api, db, cache) in &tenant_roles {
        b.connect(web, api, TrafficProfile::rpc(70.0, 800.0, 6_000.0));
        // Steady per-minute volumes on the heavy data paths (the paper's
        // production bands are minute-aggregates of many requests, so their
        // per-pair noise is small — this is what makes the byte matrix
        // low-rank enough for k≈25 reconstruction, §2.2).
        b.connect(
            api,
            db,
            TrafficProfile {
                conns_per_min: 35.0,
                fanout: Fanout::Uniform,
                fwd_bytes_per_min: (600.0, 0.3),
                rev_bytes_per_min: (9_000.0, 0.3),
                continue_p: 0.4,
                proto: Protocol::Tcp,
            },
        );
        b.connect(api, cache, TrafficProfile::rpc(65.0, 300.0, 2_500.0));
        b.connect(api, queue, TrafficProfile::rpc(6.0, 1_500.0, 300.0));
        b.connect(
            api,
            storage,
            TrafficProfile {
                conns_per_min: 10.0,
                fanout: Fanout::Uniform,
                fwd_bytes_per_min: (2_000.0, 0.3),
                rev_bytes_per_min: (40_000.0, 0.3),
                continue_p: 0.0,
                proto: Protocol::Tcp,
            },
        );
        b.connect(api, extapis, TrafficProfile::rpc(2.0, 900.0, 3_000.0));
        b.connect(
            ingress,
            web,
            TrafficProfile {
                conns_per_min: 100.0,
                fanout: Fanout::Uniform,
                fwd_bytes_per_min: (700.0, 0.3),
                rev_bytes_per_min: (15_000.0, 0.3),
                continue_p: 0.0,
                proto: Protocol::Tcp,
            },
        );
    }
    // External clients reach tenants through the ingress tier.
    b.connect(
        heavy_clients,
        ingress,
        TrafficProfile::rpc(25.0, 1_200.0, 80_000.0).with_fanout(Fanout::Zipf(0.4)),
    );
    b.connect(
        clients,
        ingress,
        TrafficProfile::rpc(0.3, 600.0, 6_000.0).with_fanout(Fanout::Zipf(0.8)),
    );
    b.build_unvalidated()
}

/// KQuery: in-memory SQL. Workers shuffle all-to-all (chatty clique),
/// coordinators fan out query fragments, storage is Zipf-hot.
fn kquery(n: impl Fn(usize) -> usize) -> Topology {
    let mut b = TopologyBuilder::new("KQuery", 23);
    let coord = b.role("coordinator", RoleKind::ControlPlane, n(8), vec![8000]);
    let workers = b.role("worker", RoleKind::Worker, n(1308), vec![9000]);
    let storage = b.role("storage", RoleKind::Datastore, n(40), vec![8111]);
    let meta = b.role("metadata", RoleKind::ControlPlane, n(4), vec![7000]);
    let tele = b.role("telemetry-sink", RoleKind::TelemetrySink, n(40), vec![9090]);
    let analysts = b.role("analysts", RoleKind::ExternalClient, n(4800), vec![]);

    // The all-to-all shuffle: the dominant traffic and the chatty clique of
    // Figure 4(d)/2(d). Sub-minute exchanges, megabytes each.
    b.connect(
        workers,
        workers,
        TrafficProfile {
            conns_per_min: 0.62,
            fanout: Fanout::All,
            fwd_bytes_per_min: (400_000.0, 1.2),
            rev_bytes_per_min: (8_000.0, 0.8),
            continue_p: 0.0,
            proto: Protocol::Tcp,
        },
    );
    b.connect(coord, workers, TrafficProfile::rpc(120.0, 4_000.0, 90_000.0));
    b.connect(
        workers,
        storage,
        TrafficProfile::rpc(2.0, 1_000.0, 2_000_000.0).with_fanout(Fanout::Zipf(1.1)),
    );
    b.connect(workers, meta, TrafficProfile::rpc(1.0, 400.0, 1_500.0));
    b.connect(workers, tele, TrafficProfile::rpc(0.5, 20_000.0, 200.0).with_fanout(Fanout::Sticky));
    b.connect(
        analysts,
        coord,
        TrafficProfile::rpc(0.25, 2_000.0, 500_000.0).with_fanout(Fanout::Zipf(0.7)),
    );
    b.build_unvalidated()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    #[test]
    fn all_presets_validate_at_every_scale() {
        // Presets finish through the unvalidated builder path, so this test
        // (plus Simulator::new's own validate) is what keeps them honest.
        for p in ClusterPreset::all() {
            for scale in [0.02, 0.1, 0.25, 1.0] {
                let t = p.topology_scaled(scale);
                t.validate().unwrap();
                assert!(t.monitored_count() > 0, "{} at scale {scale}", p.name());
            }
        }
    }

    #[test]
    fn paper_sim_config_injects_attacks_on_usvc_only() {
        for p in ClusterPreset::all() {
            let topo = p.topology_scaled(0.1);
            let cfg = p.paper_sim_config(&topo);
            if p == ClusterPreset::MicroserviceBench {
                assert_eq!(cfg.attacks.len(), 4);
            } else {
                assert!(cfg.attacks.is_empty());
            }
        }
    }

    #[test]
    fn monitored_counts_match_table1() {
        assert_eq!(ClusterPreset::Portal.topology_scaled(1.0).monitored_count(), 4);
        assert_eq!(ClusterPreset::MicroserviceBench.topology_scaled(1.0).monitored_count(), 16);
        assert_eq!(ClusterPreset::K8sPaas.topology_scaled(1.0).monitored_count(), 390);
        assert_eq!(ClusterPreset::KQuery.topology_scaled(1.0).monitored_count(), 1400);
    }

    #[test]
    fn scaled_topologies_shrink_but_keep_structure() {
        for p in ClusterPreset::all() {
            let full = p.topology_scaled(1.0);
            let small = p.topology_scaled(0.1);
            assert_eq!(full.roles.len(), small.roles.len(), "same roles");
            assert_eq!(full.edges.len(), small.edges.len(), "same edges");
            assert!(small.monitored_count() <= full.monitored_count());
            assert!(small.monitored_count() >= full.roles.len() / 4, "no role vanishes");
        }
    }

    #[test]
    fn presets_have_distinct_address_spaces() {
        let mut octets = std::collections::HashSet::new();
        for p in ClusterPreset::all() {
            assert!(octets.insert(p.topology_scaled(1.0).internal_octet), "octet collision");
        }
    }

    #[test]
    fn small_scale_simulation_runs_for_every_preset() {
        for p in ClusterPreset::all() {
            let topo = p.topology_scaled(0.02);
            let mut sim = Simulator::new(topo, p.default_sim_config()).unwrap();
            let recs = sim.collect(3);
            assert!(!recs.is_empty(), "{} must generate traffic", p.name());
            assert!(recs.iter().all(|r| r.is_well_formed()));
        }
    }

    #[test]
    fn microservice_bench_record_rate_shape() {
        // At 25% scale the mesh still produces a very high record rate
        // relative to its VM count — the defining trait of this cluster.
        let p = ClusterPreset::MicroserviceBench;
        let topo = p.topology_scaled(0.25);
        let vms = topo.monitored_count();
        let mut sim = Simulator::new(topo, p.default_sim_config()).unwrap();
        let recs = sim.collect(2);
        let per_min = recs.len() as f64 / 2.0;
        assert!(
            per_min / vms as f64 > 200.0,
            "records/min/VM should be high, got {per_min} for {vms} VMs"
        );
    }
}
