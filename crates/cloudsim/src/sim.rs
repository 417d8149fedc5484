//! The minute-stepped simulation engine.
//!
//! Each simulated minute the engine: applies churn events, spawns new
//! connections per role-edge (Poisson arrivals scaled by the load schedule),
//! emits one connection summary per *monitored vantage point* of every live
//! flow — two records when both endpoints are inside the subscription, one
//! when the peer is external, exactly as real per-NIC collection behaves —
//! steps any active attacks, and retires finished flows.
//!
//! All randomness flows from one seeded [`StdRng`], so a `(topology, config)`
//! pair reproduces its record stream bit-for-bit. Ground truth (IP → role,
//! attack-flow labels, infected set) is maintained as the simulation runs.

use crate::attack::{AttackKind, AttackScenario, AttackState};
use crate::churn::ChurnPlan;
use crate::error::Result;
use crate::load::LoadSchedule;
use crate::randx::{geometric_extra, poisson, Zipf};
use crate::roles::RoleId;
use crate::topology::Topology;
use crate::traffic::{packets_for_bytes, Fanout};
use flowlog::record::{ConnSummary, FlowKey, Protocol};
use flowlog::time::MINUTE;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; same seed ⇒ identical record stream.
    pub seed: u64,
    /// Cluster-wide load modulation.
    pub load: LoadSchedule,
    /// Scheduled replica churn.
    pub churn: ChurnPlan,
    /// Attacks to inject.
    pub attacks: Vec<AttackScenario>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            load: LoadSchedule::steady(),
            churn: ChurnPlan::none(),
            attacks: Vec::new(),
        }
    }
}

/// What the simulator knows that a real operator would not: exact roles and
/// attack labels. Downstream experiments score against this.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Role names indexed by `RoleId`.
    pub role_names: Vec<String>,
    /// Every IP that ever existed, with its role.
    pub ip_roles: HashMap<Ipv4Addr, RoleId>,
    /// Canonical flow keys of attack flows, with the attack kind.
    pub attack_flows: HashMap<FlowKey, AttackKind>,
    /// IPs compromised by lateral movement (includes patient zero).
    pub infected: BTreeSet<Ipv4Addr>,
}

impl GroundTruth {
    /// The role of an IP, if it is part of the simulated population.
    pub fn role_of(&self, ip: Ipv4Addr) -> Option<RoleId> {
        self.ip_roles.get(&ip).copied()
    }

    /// True if the canonicalized key belongs to an injected attack.
    pub fn is_attack(&self, key: &FlowKey) -> bool {
        self.attack_flows.contains_key(&key.canonical())
    }
}

/// A connection that persists across minutes.
#[derive(Debug, Clone, Copy)]
struct ActiveFlow {
    key: FlowKey,
    fwd_bytes_per_min: u64,
    rev_bytes_per_min: u64,
    remaining_min: u64,
    src_monitored: bool,
    dst_monitored: bool,
}

/// The engine. See module docs for the per-minute cycle.
pub struct Simulator {
    topo: Topology,
    cfg: SimConfig,
    rng: StdRng,
    minute: u64,
    /// Live replica addresses per role.
    replicas: Vec<Vec<Ipv4Addr>>,
    /// Next index in the dynamic address range (churn scale-outs draw fresh
    /// addresses from `10.x.240.0` upward so they can never collide with
    /// the static role-major assignment; addresses are never reused).
    next_dynamic: usize,
    /// Long-lived flows carried across minutes.
    active: Vec<ActiveFlow>,
    /// Per-source ephemeral port allocators.
    eph: HashMap<Ipv4Addr, u16>,
    /// Zipf samplers per edge, invalidated on churn of the dst role.
    zipf_cache: Vec<Option<Zipf>>,
    /// Live attack executors (created lazily at each attack's start minute).
    attacks: Vec<Option<AttackState>>,
    truth: GroundTruth,
}

impl Simulator {
    /// Build a simulator over a validated topology.
    pub fn new(topo: Topology, cfg: SimConfig) -> Result<Self> {
        topo.validate()?;
        let mut truth = GroundTruth {
            role_names: topo.roles.iter().map(|r| r.name.clone()).collect(),
            ..GroundTruth::default()
        };
        let mut replicas: Vec<Vec<Ipv4Addr>> = Vec::with_capacity(topo.roles.len());
        for r in &topo.roles {
            let mut v = Vec::with_capacity(r.replicas);
            for slot in 0..r.replicas {
                let ip = topo.ip_of(r.id, slot)?;
                truth.ip_roles.insert(ip, r.id);
                v.push(ip);
            }
            replicas.push(v);
        }
        let zipf_cache = vec![None; topo.edges.len()];
        let attacks = vec![];
        let mut sim = Simulator {
            rng: StdRng::seed_from_u64(cfg.seed),
            minute: 0,
            replicas,
            next_dynamic: 0,
            active: Vec::new(),
            eph: HashMap::new(),
            zipf_cache,
            attacks,
            truth,
            topo,
            cfg,
        };
        sim.attacks = sim.cfg.attacks.iter().map(|_| None).collect();
        Ok(sim)
    }

    /// Ground truth accumulated so far.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Current live internal (monitored) population.
    pub(crate) fn internal_population(&self) -> Vec<Ipv4Addr> {
        let mut out = Vec::new();
        for (role, ips) in self.replicas.iter().enumerate() {
            if self.topo.roles[role].is_monitored() {
                out.extend_from_slice(ips);
            }
        }
        out
    }

    fn next_eph(&mut self, src: Ipv4Addr) -> u16 {
        let p = self.eph.entry(src).or_insert(32_768);
        *p = if *p >= 60_999 { 32_768 } else { *p + 1 };
        *p
    }

    /// Simulate one minute; returns that minute's records sorted by key.
    pub(crate) fn step(&mut self) -> Vec<ConnSummary> {
        let minute = self.minute;
        let ts = minute * MINUTE;
        self.apply_churn(minute);

        let mut out: Vec<ConnSummary> = Vec::new();

        // 1. Emit for flows that survived from previous minutes.
        for f in &self.active {
            emit_flow(&mut out, ts, f);
        }
        // Retire flows that just emitted their last minute.
        for f in &mut self.active {
            f.remaining_min -= 1;
        }
        self.active.retain(|f| f.remaining_min > 0);

        // 2. Spawn this minute's new connections, edge by edge.
        let load = self.cfg.load.factor_at(minute);
        for e in 0..self.topo.edges.len() {
            self.spawn_edge(e, ts, load, &mut out);
        }

        // 3. Attacks.
        self.step_attacks(minute, ts, &mut out);

        self.minute += 1;
        out.sort_unstable_by_key(|s| s.key);
        out
    }

    /// Run `minutes` minutes, handing each minute's batch to `sink`.
    pub fn run(&mut self, minutes: u64, mut sink: impl FnMut(u64, &[ConnSummary])) {
        for _ in 0..minutes {
            let m = self.minute;
            let batch = self.step();
            sink(m, &batch);
        }
    }

    /// Run `minutes` minutes and collect every record. Convenient for tests
    /// and small clusters; prefer [`Simulator::run`] for KQuery-scale streams.
    pub fn collect(&mut self, minutes: u64) -> Vec<ConnSummary> {
        let mut all = Vec::new();
        self.run(minutes, |_, batch| all.extend_from_slice(batch));
        all
    }

    /// A fresh internal address from the dynamic range `10.x.240.0` …
    /// `10.x.255.249` (4000 addresses), disjoint from the static role-major
    /// pool. Returns `None` when the range is exhausted.
    fn dynamic_ip(&mut self) -> Option<Ipv4Addr> {
        let d = self.next_dynamic;
        let (hi, lo) = (240 + d / 250, d % 250 + 1);
        if hi > 255 {
            return None;
        }
        self.next_dynamic += 1;
        Some(Ipv4Addr::new(10, self.topo.internal_octet, hi as u8, lo as u8))
    }

    fn apply_churn(&mut self, minute: u64) {
        let events: Vec<_> = self.cfg.churn.events_at(minute).copied().collect();
        for ev in events {
            let role_idx = ev.role.0 as usize;
            if role_idx >= self.topo.roles.len() {
                continue; // tolerate plans referencing foreign roles
            }
            if ev.delta >= 0 {
                for _ in 0..ev.delta {
                    if let Some(ip) = self.dynamic_ip() {
                        self.truth.ip_roles.insert(ip, ev.role);
                        self.replicas[role_idx].push(ip);
                    }
                }
            } else {
                let keep_at_least = 1;
                for _ in 0..(-ev.delta) {
                    if self.replicas[role_idx].len() > keep_at_least {
                        if let Some(gone) = self.replicas[role_idx].pop() {
                            // Kill flows touching the retired address.
                            self.active
                                .retain(|f| f.key.local_ip != gone && f.key.remote_ip != gone);
                        }
                    }
                }
            }
            // Replica set changed: drop cached Zipf samplers over this role.
            for (i, edge) in self.topo.edges.iter().enumerate() {
                if edge.dst == ev.role {
                    self.zipf_cache[i] = None;
                }
            }
        }
    }

    fn spawn_edge(&mut self, edge_idx: usize, ts: u64, load: f64, out: &mut Vec<ConnSummary>) {
        let edge = self.topo.edges[edge_idx].clone();
        let src_role = &self.topo.roles[edge.src.0 as usize];
        let dst_role = &self.topo.roles[edge.dst.0 as usize];
        let (src_mon, dst_mon) = (src_role.is_monitored(), dst_role.is_monitored());
        let srcs = self.replicas[edge.src.0 as usize].clone();
        let dsts = self.replicas[edge.dst.0 as usize].clone();
        if dsts.is_empty() {
            return;
        }
        let fwd = edge.profile.fwd_dist();
        let rev = edge.profile.rev_dist();
        let ports = dst_role.service_ports.clone();
        let mut conn_ordinal = 0u64;

        for (s_idx, &src) in srcs.iter().enumerate() {
            let n = match edge.profile.fanout {
                Fanout::All => {
                    // One expected connection batch per destination.
                    let per_dst = edge.profile.conns_per_min * load;
                    let mut total = 0u64;
                    for (d_idx, &dst) in dsts.iter().enumerate() {
                        if dst == src {
                            continue;
                        }
                        let k = poisson(per_dst, &mut self.rng);
                        for _ in 0..k {
                            self.spawn_one(
                                ts,
                                src,
                                dst,
                                &ports,
                                conn_ordinal,
                                edge.profile.proto,
                                &fwd,
                                &rev,
                                edge.profile.continue_p,
                                src_mon,
                                dst_mon,
                                out,
                            );
                            conn_ordinal += 1;
                            total += 1;
                        }
                        let _ = d_idx;
                    }
                    let _ = total;
                    continue;
                }
                _ => poisson(edge.profile.conns_per_min * load, &mut self.rng),
            };
            for _ in 0..n {
                let dst = match edge.profile.fanout {
                    Fanout::Uniform => dsts[self.rng.random_range(0..dsts.len())],
                    Fanout::Sticky => dsts[s_idx % dsts.len()],
                    Fanout::Zipf(s) => {
                        if self.zipf_cache[edge_idx]
                            .as_ref()
                            .map(|z| z.len() != dsts.len())
                            .unwrap_or(true)
                        {
                            self.zipf_cache[edge_idx] = Some(Zipf::new(dsts.len(), s));
                        }
                        let z = self.zipf_cache[edge_idx]
                            .get_or_insert_with(|| Zipf::new(dsts.len(), s));
                        dsts[z.sample(&mut self.rng)]
                    }
                    // All-fanout already drew every destination above.
                    Fanout::All => continue,
                };
                if dst == src {
                    continue; // self-loops carry no network traffic
                }
                self.spawn_one(
                    ts,
                    src,
                    dst,
                    &ports,
                    conn_ordinal,
                    edge.profile.proto,
                    &fwd,
                    &rev,
                    edge.profile.continue_p,
                    src_mon,
                    dst_mon,
                    out,
                );
                conn_ordinal += 1;
            }
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one spawned connection's endpoints, ports, size laws and output buffer"
    )]
    fn spawn_one(
        &mut self,
        ts: u64,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ports: &[u16],
        ordinal: u64,
        proto: Protocol,
        fwd: &crate::randx::LogNormal,
        rev: &crate::randx::LogNormal,
        continue_p: f64,
        src_mon: bool,
        dst_mon: bool,
        out: &mut Vec<ConnSummary>,
    ) {
        let port = ports[(ordinal % ports.len() as u64) as usize];
        let key = FlowKey {
            local_ip: src,
            local_port: self.next_eph(src),
            remote_ip: dst,
            remote_port: port,
            proto,
        };
        let flow = ActiveFlow {
            key,
            fwd_bytes_per_min: fwd.sample(&mut self.rng).max(1.0) as u64,
            rev_bytes_per_min: rev.sample(&mut self.rng).max(1.0) as u64,
            remaining_min: 1 + geometric_extra(continue_p, &mut self.rng),
            src_monitored: src_mon,
            dst_monitored: dst_mon,
        };
        emit_flow(out, ts, &flow);
        if flow.remaining_min > 1 {
            self.active.push(ActiveFlow { remaining_min: flow.remaining_min - 1, ..flow });
        }
    }

    fn step_attacks(&mut self, minute: u64, ts: u64, out: &mut Vec<ConnSummary>) {
        if self.cfg.attacks.is_empty() {
            return;
        }
        let population = self.internal_population();
        for i in 0..self.cfg.attacks.len() {
            let scenario = self.cfg.attacks[i].clone();
            if !scenario.active_at(minute) {
                continue;
            }
            if self.attacks[i].is_none() {
                match AttackState::new(scenario.clone(), &population) {
                    Ok(st) => self.attacks[i] = Some(st),
                    Err(_) => continue, // breached IP churned away before start
                }
            }
            let Some(st) = self.attacks[i].as_mut() else { continue };
            let flows = st.step(minute, &population, &mut self.rng);
            self.truth.infected.extend(st.infected().iter().copied());
            for af in flows {
                self.truth.attack_flows.insert(af.key.canonical(), af.kind);
                let victim_monitored = self.truth.ip_roles.contains_key(&af.key.remote_ip)
                    && af.key.remote_ip.octets()[0] == 10;
                let flow = ActiveFlow {
                    key: af.key,
                    fwd_bytes_per_min: af.fwd_bytes,
                    rev_bytes_per_min: af.rev_bytes,
                    remaining_min: 1,
                    src_monitored: true,
                    dst_monitored: victim_monitored,
                };
                emit_flow(out, ts, &flow);
            }
        }
    }
}

/// Emit one record per monitored vantage point of a flow-minute.
fn emit_flow(out: &mut Vec<ConnSummary>, ts: u64, f: &ActiveFlow) {
    let initiator = ConnSummary {
        ts,
        key: f.key,
        pkts_sent: packets_for_bytes(f.fwd_bytes_per_min),
        pkts_rcvd: packets_for_bytes(f.rev_bytes_per_min),
        bytes_sent: f.fwd_bytes_per_min,
        bytes_rcvd: f.rev_bytes_per_min,
    };
    if f.src_monitored {
        out.push(initiator);
    }
    if f.dst_monitored {
        out.push(initiator.mirrored());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadShape;
    use crate::roles::RoleKind;
    use crate::topology::TopologyBuilder;
    use crate::traffic::TrafficProfile;

    fn small_topo() -> Topology {
        let mut b = TopologyBuilder::new("unit", 3);
        let fe = b.role("frontend", RoleKind::Frontend, 3, vec![443]);
        let be = b.role("backend", RoleKind::Service, 2, vec![8080]);
        let db = b.role("db", RoleKind::Datastore, 1, vec![5432]);
        let ext = b.role("clients", RoleKind::ExternalClient, 20, vec![]);
        b.connect(ext, fe, TrafficProfile::rpc(2.0, 500.0, 12_000.0));
        b.connect(fe, be, TrafficProfile::rpc(10.0, 600.0, 4_000.0));
        b.connect(be, db, TrafficProfile::bulk(1.0, 50_000.0, 200_000.0));
        b.build().unwrap()
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig { seed: 99, ..SimConfig::default() };
        let a = Simulator::new(small_topo(), cfg.clone()).unwrap().collect(10);
        let b = Simulator::new(small_topo(), cfg).unwrap().collect(10);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulator::new(small_topo(), SimConfig { seed: 1, ..Default::default() })
            .unwrap()
            .collect(5);
        let b = Simulator::new(small_topo(), SimConfig { seed: 2, ..Default::default() })
            .unwrap()
            .collect(5);
        assert_ne!(a, b);
    }

    #[test]
    fn all_records_are_well_formed_and_bucketed() {
        let mut sim = Simulator::new(small_topo(), SimConfig::default()).unwrap();
        sim.run(15, |minute, batch| {
            for r in batch {
                assert!(r.is_well_formed(), "{r:?}");
                assert_eq!(r.ts, minute * MINUTE);
            }
        });
    }

    #[test]
    fn internal_flows_produce_two_vantage_records() {
        // backend -> db are both monitored: every flow-minute must appear
        // exactly twice (once per vantage), mirrored.
        let mut sim = Simulator::new(small_topo(), SimConfig::default()).unwrap();
        let recs = sim.collect(5);
        let truth = sim.ground_truth();
        let mut by_canonical: HashMap<FlowKey, Vec<ConnSummary>> = HashMap::new();
        for r in &recs {
            by_canonical.entry(r.key.canonical()).or_default().push(*r);
        }
        let mut checked = 0;
        for (k, group) in by_canonical {
            let both_internal = k.local_ip.octets()[0] == 10 && k.remote_ip.octets()[0] == 10;
            if both_internal {
                // Group contains per-minute pairs: even count, and pairs mirror.
                assert_eq!(group.len() % 2, 0, "internal flow must have paired records");
                checked += 1;
            }
        }
        assert!(checked > 0, "test topology must exercise internal flows");
        let _ = truth;
    }

    #[test]
    fn external_clients_never_report() {
        let mut sim = Simulator::new(small_topo(), SimConfig::default()).unwrap();
        let recs = sim.collect(5);
        for r in &recs {
            assert_eq!(
                r.key.local_ip.octets()[0],
                10,
                "only monitored (internal) NICs produce records: {r:?}"
            );
        }
        // But external peers do appear on the remote side.
        assert!(recs.iter().any(|r| r.key.remote_ip.octets()[0] != 10));
    }

    #[test]
    fn ground_truth_covers_population() {
        let sim = Simulator::new(small_topo(), SimConfig::default()).unwrap();
        let t = sim.ground_truth();
        assert_eq!(t.ip_roles.len(), 26, "3+2+1 internal + 20 external");
        assert_eq!(t.role_names.len(), 4);
    }

    #[test]
    fn load_spike_increases_traffic() {
        let steady = Simulator::new(small_topo(), SimConfig { seed: 5, ..Default::default() })
            .unwrap()
            .collect(10)
            .len();
        let spiky = Simulator::new(
            small_topo(),
            SimConfig {
                seed: 5,
                load: LoadSchedule::steady().with(LoadShape::Spike {
                    start_min: 0,
                    duration_min: 10,
                    factor: 5.0,
                }),
                ..Default::default()
            },
        )
        .unwrap()
        .collect(10)
        .len();
        assert!(
            spiky as f64 > steady as f64 * 2.0,
            "5x load should raise record count well past 2x: {steady} -> {spiky}"
        );
    }

    #[test]
    fn churn_scale_out_adds_new_ips() {
        let cfg =
            SimConfig { churn: ChurnPlan::none().with(3, RoleId(0), 5), ..Default::default() };
        let mut sim = Simulator::new(small_topo(), cfg).unwrap();
        let before = sim.internal_population().len();
        sim.run(5, |_, _| {});
        let after = sim.internal_population().len();
        assert_eq!(after, before + 5);
        // New IPs are in ground truth with the right role.
        let fe_count = sim.ground_truth().ip_roles.values().filter(|r| **r == RoleId(0)).count();
        assert_eq!(fe_count, 8);
    }

    #[test]
    fn churn_scale_in_removes_flows() {
        let cfg =
            SimConfig { churn: ChurnPlan::none().with(5, RoleId(1), -1), ..Default::default() };
        let mut sim = Simulator::new(small_topo(), cfg).unwrap();
        sim.run(4, |_, _| {});
        let before = sim.internal_population().len();
        sim.run(2, |_, _| {});
        assert_eq!(sim.internal_population().len(), before - 1);
    }

    #[test]
    fn scale_in_never_eliminates_a_role() {
        let cfg =
            SimConfig { churn: ChurnPlan::none().with(1, RoleId(2), -10), ..Default::default() };
        let mut sim = Simulator::new(small_topo(), cfg).unwrap();
        sim.run(3, |_, _| {});
        assert!(sim.replicas_of(RoleId(2)) >= 1, "db role must keep its last replica");
    }

    impl Simulator {
        fn replicas_of(&self, role: RoleId) -> usize {
            self.replicas[role.0 as usize].len()
        }
    }

    #[test]
    fn attacks_are_labeled_in_ground_truth() {
        let breached = small_topo().ip_of(RoleId(0), 0).unwrap();
        let cfg = SimConfig {
            attacks: vec![AttackScenario {
                kind: AttackKind::LateralMovement,
                start_min: 2,
                duration_min: 5,
                breached,
                intensity: 5,
            }],
            ..Default::default()
        };
        let mut sim = Simulator::new(small_topo(), cfg).unwrap();
        let recs = sim.collect(10);
        let truth = sim.ground_truth();
        assert!(!truth.attack_flows.is_empty(), "attack must generate labeled flows");
        assert!(truth.infected.contains(&breached));
        let attack_recs = recs.iter().filter(|r| truth.is_attack(&r.key)).count();
        assert!(attack_recs > 0, "attack flows must appear in the record stream");
    }

    #[test]
    fn long_lived_flows_persist_across_minutes() {
        // db edge has continue_p=0.85: the same flow key should appear in
        // multiple minutes.
        let mut sim =
            Simulator::new(small_topo(), SimConfig { seed: 11, ..Default::default() }).unwrap();
        let recs = sim.collect(10);
        let mut minutes_per_flow: HashMap<FlowKey, BTreeSet<u64>> = HashMap::new();
        for r in &recs {
            if r.key.remote_port == 5432 {
                minutes_per_flow.entry(r.key.canonical()).or_default().insert(r.ts);
            }
        }
        let max_span = minutes_per_flow.values().map(|s| s.len()).max().unwrap_or(0);
        assert!(max_span >= 3, "bulk flows should span several minutes, max {max_span}");
    }
}
