//! Seeded input generators. The product only ever sees what these return;
//! the same seed gives the same inputs, bit for bit.

use cloudsim::attack::{AttackKind, AttackScenario};
use cloudsim::{ClusterPreset, Simulator};
use flowlog::record::{ConnSummary, FlowKey};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::ops::Range;
use std::time::Instant;

/// A simulated cluster's telemetry, stored once: per window, with each
/// simulated minute a sub-slice of its window (the harness's buffers count
/// towards `peak_rss_mb`, so they are not kept twice).
pub struct SimInputs {
    /// Records per `window_len` window, in the order the simulator emitted
    /// them.
    pub windows: Vec<Vec<ConnSummary>>,
    /// Each simulated minute as `(window index, range within it)`.
    minutes: Vec<(usize, Range<usize>)>,
    /// The subscription's own (internal) addresses.
    pub monitored: HashSet<Ipv4Addr>,
    /// Ground-truth role of every address that ever existed.
    pub truth: HashMap<Ipv4Addr, usize>,
    /// Wall time `Simulator::run` took (generator side; feeds
    /// `cloudsim.sim_records_per_s`).
    pub sim_secs: f64,
}

impl SimInputs {
    /// Records across all windows.
    pub fn records(&self) -> u64 {
        self.windows.iter().map(|w| w.len() as u64).sum()
    }

    /// The batches the simulator emitted, one per minute.
    pub fn minutes(&self) -> impl Iterator<Item = &[ConnSummary]> {
        self.minutes.iter().map(|(w, range)| &self.windows[*w][range.clone()])
    }

    /// Every record, in emission order.
    pub fn all(&self) -> impl Iterator<Item = &ConnSummary> {
        self.windows.iter().flatten()
    }
}

/// Run `preset` at `scale` for `minutes`, seeded with `seed`, cut into
/// `window_len`-second windows (a multiple of 60). `attack` is an optional
/// `(start_min, duration_min)` lateral-movement breach of the first
/// frontend replica. `keep_one_in` thins the stream to every n-th wire flow
/// (both vantages of a flow stay together); the presets' record rate has a
/// floor that `scale` cannot lower, and the smoke tests need less.
pub fn simulate(
    preset: ClusterPreset,
    scale: f64,
    minutes: u64,
    window_len: u64,
    seed: u64,
    attack: Option<(u64, u64)>,
    keep_one_in: u64,
) -> SimInputs {
    let topo = preset.topology_scaled(scale);
    let mut cfg = preset.default_sim_config();
    cfg.seed = seed;
    if let Some((start_min, duration_min)) = attack {
        let role = topo.role_named("frontend").expect("preset has a frontend role").id;
        let breached = topo.ip_of(role, 0).expect("slot 0 exists at any scale");
        cfg.attacks = vec![AttackScenario {
            kind: AttackKind::LateralMovement,
            start_min,
            duration_min,
            breached,
            intensity: 6,
        }];
    }
    let mut sim = Simulator::new(topo, cfg).expect("preset topologies validate");
    let per_window = (window_len / 60).max(1);
    let mut windows: Vec<Vec<ConnSummary>> = Vec::new();
    let mut spans = Vec::with_capacity(minutes as usize);
    let t0 = Instant::now();
    sim.run(minutes, |minute, batch| {
        let w = (minute / per_window) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        let at = windows[w].len();
        let kept = batch.iter().filter(|r| {
            let k = r.key.canonical();
            let flow = u64::from(u32::from(k.local_ip)) << 32 | u64::from(k.local_port);
            mix(flow).is_multiple_of(keep_one_in)
        });
        windows[w].extend(kept);
        spans.push((w, at..windows[w].len()));
    });
    let sim_secs = t0.elapsed().as_secs_f64();
    let truth: HashMap<Ipv4Addr, usize> =
        sim.ground_truth().ip_roles.iter().map(|(ip, r)| (*ip, r.0 as usize)).collect();
    let monitored = truth.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();
    SimInputs { windows, minutes: spans, monitored, truth, sim_secs }
}

/// SplitMix64 finaliser: a stateless hash for per-edge constants.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A synthetic cluster of `roles` tiers in a ring, `replicas` VMs each:
/// every replica of tier *i* calls every replica of tier *i+1*, so one
/// window holds `roles × replicas²` distinct edges whatever the record
/// count — the high-cardinality regime the simulator presets never reach.
#[derive(Debug, Clone, Copy)]
pub struct RoleTopo {
    /// Tiers (< 256).
    pub roles: usize,
    /// VMs per tier (< 255).
    pub replicas: usize,
}

impl RoleTopo {
    /// Address of `replica` of `role` in subscription `sub`.
    pub fn ip(&self, sub: u32, role: usize, replica: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, sub as u8 + 1, role as u8, replica as u8 + 1)
    }

    /// Node `idx` (`0..roles × replicas`) as `(role, replica)`.
    fn node(&self, idx: usize) -> (usize, usize) {
        (idx / self.replicas, idx % self.replicas)
    }

    /// Total VMs.
    pub fn nodes(&self) -> usize {
        self.roles * self.replicas
    }

    /// Ground-truth role per address of subscription `sub`.
    pub fn truth(&self, sub: u32) -> HashMap<Ipv4Addr, usize> {
        (0..self.nodes())
            .map(|i| {
                let (role, replica) = self.node(i);
                (self.ip(sub, role, replica), role)
            })
            .collect()
    }

    /// One conversation from node `from` to node `to` (`ts` 0). Counters
    /// are a pure function of `(seed, sub, from, to)`: the incremental path
    /// treats any counter change as churn, so an unchanged conversation
    /// must read the same in every window.
    pub fn conversation(&self, seed: u64, sub: u32, from: usize, to: usize) -> ConnSummary {
        let ((fr, fp), (tr, tp)) = (self.node(from), self.node(to));
        let h = mix(seed ^ mix(((sub as u64) << 48) | ((from as u64) << 24) | to as u64));
        let sent = 500 + h % 50_000;
        let rcvd = 100 + (h >> 20) % 5_000;
        ConnSummary {
            ts: 0,
            key: FlowKey::tcp(
                self.ip(sub, fr, fp),
                40_000 + (h >> 40) as u16 % 20_000,
                self.ip(sub, tr, tp),
                1_024 + (tr % 64) as u16,
            ),
            pkts_sent: sent / 1_000 + 1,
            pkts_rcvd: rcvd / 1_000 + 1,
            bytes_sent: sent,
            bytes_rcvd: rcvd,
        }
    }

    /// The steady all-to-next-tier conversations of subscription `sub`.
    pub fn base(&self, seed: u64, sub: u32) -> Vec<ConnSummary> {
        let mut out = Vec::with_capacity(self.nodes() * self.replicas);
        for from in 0..self.nodes() {
            let next_role = (from / self.replicas + 1) % self.roles;
            for p in 0..self.replicas {
                out.push(self.conversation(seed, sub, from, next_role * self.replicas + p));
            }
        }
        out
    }

    /// A conversation between two distinct random nodes.
    pub fn random_conversation(&self, seed: u64, sub: u32, rng: &mut StdRng) -> ConnSummary {
        let from = rng.random_range(0..self.nodes());
        let to = (from + rng.random_range(1..self.nodes())) % self.nodes();
        self.conversation(seed, sub, from, to)
    }
}

/// Place `records` at random instants of the window starting at `start`,
/// then order them by time as a collector would deliver them.
pub fn stamp(records: &mut [ConnSummary], start: u64, window_len: u64, rng: &mut StdRng) {
    for r in records.iter_mut() {
        r.ts = start + rng.random_range(0..window_len);
    }
    records.sort_by_key(|r| (r.ts, r.key));
}

/// FNV-1a over every field of every record: the input digest the
/// determinism tests compare.
pub fn digest<'a>(records: impl IntoIterator<Item = &'a ConnSummary>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.ts);
        eat(u32::from(r.key.local_ip) as u64);
        eat(u32::from(r.key.remote_ip) as u64);
        eat(((r.key.local_port as u64) << 16) | r.key.remote_port as u64);
        eat(r.pkts_sent);
        eat(r.pkts_rcvd);
        eat(r.bytes_sent);
        eat(r.bytes_rcvd);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn role_topo_has_the_advertised_cardinality() {
        let topo = RoleTopo { roles: 6, replicas: 4 };
        let base = topo.base(7, 0);
        assert_eq!(base.len(), 6 * 4 * 4);
        let pairs: HashSet<(Ipv4Addr, Ipv4Addr)> =
            base.iter().map(|r| (r.key.local_ip, r.key.remote_ip)).collect();
        assert_eq!(pairs.len(), base.len(), "every record is its own edge");
        assert_eq!(topo.truth(0).len(), 24);
        assert_eq!(topo.base(7, 0), base, "counters do not depend on call order");
        assert_ne!(digest(&topo.base(8, 0)), digest(&base));
    }

    #[test]
    fn stamping_stays_inside_the_window_and_sorts() {
        let topo = RoleTopo { roles: 3, replicas: 2 };
        let mut recs = topo.base(1, 0);
        stamp(&mut recs, 7200, 3600, &mut StdRng::seed_from_u64(1));
        assert!(recs.iter().all(|r| (7200..10_800).contains(&r.ts)));
        assert!(recs.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
