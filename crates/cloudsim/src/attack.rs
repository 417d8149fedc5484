//! Attack injection with labeled ground truth.
//!
//! The paper evaluates µserviceBench with "a wide range of attacks"
//! injected by a breach-and-attack-simulation tool. This module reproduces
//! the four archetypes that matter for communication-graph security — each
//! produces flows through the same telemetry path as benign traffic, plus a
//! ground-truth label so detection and containment can be scored:
//!
//! * **Lateral movement** — a breached VM probes peers it never normally
//!   talks to, and each newly "infected" VM probes further (the blast-radius
//!   scenario micro-segmentation exists to contain).
//! * **Port scan** — one source sweeps many (ip, port) pairs with tiny flows.
//! * **Exfiltration** — a breached VM streams data to an outside endpoint.
//! * **C2 beacon** — low-and-slow periodic call-outs to a command server.

use crate::error::{Error, Result};
use flowlog::record::{FlowKey, Protocol};
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The attack archetypes the simulator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackKind {
    /// Breach spreads from VM to VM over admin/service ports.
    LateralMovement,
    /// Fast sweep of many ports across many targets.
    PortScan,
    /// Bulk data push to an external endpoint.
    Exfiltration,
    /// Periodic small call-outs to an external command server.
    C2Beacon,
}

/// Configuration of one injected attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackScenario {
    /// Which archetype to run.
    pub kind: AttackKind,
    /// Minute (from simulation start) the attack begins.
    pub start_min: u64,
    /// How many minutes it stays active.
    pub duration_min: u64,
    /// The initially breached internal IP.
    pub breached: Ipv4Addr,
    /// Archetype intensity: targets/min for movement & scans, bytes/min for
    /// exfiltration, minutes between beacons for C2.
    pub intensity: u64,
}

impl AttackScenario {
    /// Minutes during which the attack is active (half-open).
    pub(crate) fn active_at(&self, minute: u64) -> bool {
        (self.start_min..self.start_min + self.duration_min).contains(&minute)
    }
}

/// One attack-generated flow for a single minute, with its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttackFlow {
    /// Flow identity from the attacker-side vantage.
    pub(crate) key: FlowKey,
    /// Bytes the attacker side sends this minute.
    pub(crate) fwd_bytes: u64,
    /// Bytes returned this minute.
    pub(crate) rev_bytes: u64,
    /// Which attack produced it.
    pub(crate) kind: AttackKind,
}

/// Ports lateral movement and scans probe: SSH, RDP, WinRM, SMB, plus a few
/// service ports attackers commonly target.
const PROBE_PORTS: [u16; 8] = [22, 3389, 5985, 445, 8080, 9200, 6379, 2379];

/// External endpoints used by exfiltration / C2 (outside both simulator
/// pools, so they are unambiguously "new external peers" to the analyses).
fn external_endpoint(salt: u64) -> Ipv4Addr {
    Ipv4Addr::new(203, 0, 113, (salt % 254 + 1) as u8)
}

/// Stateful executor for one scenario. Created by the simulator at attack
/// start; stepped every minute while active.
#[derive(Debug)]
pub(crate) struct AttackState {
    scenario: AttackScenario,
    /// Lateral movement: the set of currently-infected internal IPs.
    infected: BTreeSet<Ipv4Addr>,
    /// Port-scan cursor so successive minutes sweep different ports.
    scan_cursor: u64,
    /// Ephemeral-port counter for attacker-side sockets.
    eph_port: u16,
}

impl AttackState {
    /// Initialize state for a scenario; the breached IP must belong to the
    /// simulated population.
    pub(crate) fn new(scenario: AttackScenario, population: &[Ipv4Addr]) -> Result<Self> {
        if !population.contains(&scenario.breached) {
            return Err(Error::UnknownIp(scenario.breached));
        }
        if scenario.intensity == 0 {
            return Err(Error::InvalidConfig("attack intensity must be positive".into()));
        }
        let mut infected = BTreeSet::new();
        infected.insert(scenario.breached);
        Ok(AttackState { scenario, infected, scan_cursor: 0, eph_port: 50_000 })
    }

    /// IPs currently compromised (ground truth for containment scoring).
    pub(crate) fn infected(&self) -> &BTreeSet<Ipv4Addr> {
        &self.infected
    }

    fn next_eph(&mut self) -> u16 {
        self.eph_port = if self.eph_port >= 60_000 { 50_000 } else { self.eph_port + 1 };
        self.eph_port
    }

    /// Generate this minute's attack flows. `population` is the current set
    /// of internal IPs (lateral movement picks victims from it).
    pub(crate) fn step<R: RngExt + ?Sized>(
        &mut self,
        minute: u64,
        population: &[Ipv4Addr],
        rng: &mut R,
    ) -> Vec<AttackFlow> {
        if !self.scenario.active_at(minute) {
            return Vec::new();
        }
        match self.scenario.kind {
            AttackKind::LateralMovement => self.step_lateral(population, rng),
            AttackKind::PortScan => self.step_scan(population, rng),
            AttackKind::Exfiltration => self.step_exfil(),
            AttackKind::C2Beacon => self.step_beacon(minute),
        }
    }

    fn step_lateral<R: RngExt + ?Sized>(
        &mut self,
        population: &[Ipv4Addr],
        rng: &mut R,
    ) -> Vec<AttackFlow> {
        let mut out = Vec::new();
        let sources: Vec<Ipv4Addr> = self.infected.iter().copied().collect();
        let mut newly_infected = Vec::new();
        for src in sources {
            for _ in 0..self.scenario.intensity {
                if population.is_empty() {
                    break;
                }
                let victim = population[rng.random_range(0..population.len())];
                if victim == src {
                    continue;
                }
                let port = PROBE_PORTS[rng.random_range(0..PROBE_PORTS.len())];
                let eph = self.next_eph();
                out.push(AttackFlow {
                    key: FlowKey {
                        local_ip: src,
                        local_port: eph,
                        remote_ip: victim,
                        remote_port: port,
                        proto: Protocol::Tcp,
                    },
                    // Probe + exploit payload: a few KB each way.
                    fwd_bytes: rng.random_range(500..8_000),
                    rev_bytes: rng.random_range(100..2_000),
                    kind: AttackKind::LateralMovement,
                });
                // A probe succeeds (infects) with 30% probability.
                if !self.infected.contains(&victim) && rng.random_range(0.0..1.0) < 0.3 {
                    newly_infected.push(victim);
                }
            }
        }
        self.infected.extend(newly_infected);
        out
    }

    fn step_scan<R: RngExt + ?Sized>(
        &mut self,
        population: &[Ipv4Addr],
        rng: &mut R,
    ) -> Vec<AttackFlow> {
        let mut out = Vec::new();
        let src = self.scenario.breached;
        for _ in 0..self.scenario.intensity {
            if population.is_empty() {
                break;
            }
            let victim = population[rng.random_range(0..population.len())];
            if victim == src {
                continue;
            }
            // Sequential port sweep: characteristic scanner signature.
            let port = 1 + (self.scan_cursor % 10_000) as u16;
            self.scan_cursor += 1;
            let eph = self.next_eph();
            out.push(AttackFlow {
                key: FlowKey {
                    local_ip: src,
                    local_port: eph,
                    remote_ip: victim,
                    remote_port: port,
                    proto: Protocol::Tcp,
                },
                // SYN probe: one or two packets worth of bytes, tiny reply.
                fwd_bytes: 120,
                rev_bytes: 60,
                kind: AttackKind::PortScan,
            });
        }
        out
    }

    fn step_exfil(&mut self) -> Vec<AttackFlow> {
        let eph = self.next_eph();
        vec![AttackFlow {
            key: FlowKey {
                local_ip: self.scenario.breached,
                local_port: eph,
                remote_ip: external_endpoint(self.scenario.start_min),
                remote_port: 443,
                proto: Protocol::Tcp,
            },
            // intensity = bytes/min pushed out; small ACK stream back.
            fwd_bytes: self.scenario.intensity,
            rev_bytes: self.scenario.intensity / 50,
            kind: AttackKind::Exfiltration,
        }]
    }

    fn step_beacon(&mut self, minute: u64) -> Vec<AttackFlow> {
        // intensity = beacon period in minutes.
        if !(minute - self.scenario.start_min).is_multiple_of(self.scenario.intensity) {
            return Vec::new();
        }
        let eph = self.next_eph();
        vec![AttackFlow {
            key: FlowKey {
                local_ip: self.scenario.breached,
                local_port: eph,
                remote_ip: external_endpoint(self.scenario.start_min.wrapping_add(7)),
                remote_port: 443,
                proto: Protocol::Tcp,
            },
            fwd_bytes: 900,
            rev_bytes: 400,
            kind: AttackKind::C2Beacon,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pop(n: usize) -> Vec<Ipv4Addr> {
        (0..n).map(|i| Ipv4Addr::new(10, 0, 0, (i + 1) as u8)).collect()
    }

    fn scenario(kind: AttackKind, intensity: u64) -> AttackScenario {
        AttackScenario {
            kind,
            start_min: 5,
            duration_min: 10,
            breached: Ipv4Addr::new(10, 0, 0, 1),
            intensity,
        }
    }

    #[test]
    fn breached_ip_must_exist() {
        let mut s = scenario(AttackKind::PortScan, 10);
        s.breached = Ipv4Addr::new(9, 9, 9, 9);
        assert!(matches!(AttackState::new(s, &pop(5)), Err(Error::UnknownIp(_))));
    }

    #[test]
    fn zero_intensity_rejected() {
        assert!(AttackState::new(scenario(AttackKind::PortScan, 0), &pop(5)).is_err());
    }

    #[test]
    fn inactive_minutes_are_silent() {
        let mut st = AttackState::new(scenario(AttackKind::PortScan, 10), &pop(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(st.step(4, &pop(5), &mut rng).is_empty(), "before start");
        assert!(!st.step(5, &pop(5), &mut rng).is_empty(), "at start");
        assert!(st.step(15, &pop(5), &mut rng).is_empty(), "after end");
    }

    #[test]
    fn lateral_movement_spreads() {
        let population = pop(30);
        let mut st =
            AttackState::new(scenario(AttackKind::LateralMovement, 8), &population).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for m in 5..15 {
            st.step(m, &population, &mut rng);
        }
        assert!(
            st.infected().len() > 3,
            "infection should spread beyond patient zero, got {}",
            st.infected().len()
        );
        assert!(st.infected().contains(&Ipv4Addr::new(10, 0, 0, 1)));
    }

    #[test]
    fn port_scan_sweeps_distinct_ports() {
        let population = pop(10);
        let mut st = AttackState::new(scenario(AttackKind::PortScan, 50), &population).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let flows = st.step(5, &population, &mut rng);
        let ports: std::collections::HashSet<u16> =
            flows.iter().map(|f| f.key.remote_port).collect();
        assert!(ports.len() > 40, "sequential sweep yields distinct ports, got {}", ports.len());
        assert!(flows.iter().all(|f| f.fwd_bytes <= 200), "scan probes are tiny");
    }

    #[test]
    fn exfiltration_targets_external_endpoint() {
        let population = pop(5);
        let mut st =
            AttackState::new(scenario(AttackKind::Exfiltration, 5_000_000), &population).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let flows = st.step(6, &population, &mut rng);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].fwd_bytes, 5_000_000);
        assert_eq!(flows[0].key.remote_ip.octets()[0], 203, "staging box is external");
    }

    #[test]
    fn beacon_fires_on_period() {
        let population = pop(5);
        let mut st = AttackState::new(scenario(AttackKind::C2Beacon, 3), &population).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let fired: Vec<u64> =
            (5..15).filter(|&m| !st.step(m, &population, &mut rng).is_empty()).collect();
        assert_eq!(fired, vec![5, 8, 11, 14], "every third minute from start");
    }
}
