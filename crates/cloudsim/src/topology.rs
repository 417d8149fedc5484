//! Deployment topologies: roles, replicas, and who talks to whom.

use crate::error::{Error, Result};
use crate::roles::{Role, RoleId, RoleKind};
use crate::traffic::TrafficProfile;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A directed communication relationship between two roles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoleEdge {
    /// Initiating role.
    pub(crate) src: RoleId,
    /// Accepting role.
    pub(crate) dst: RoleId,
    /// Traffic shape of the conversation.
    pub(crate) profile: TrafficProfile,
}

/// A named deployment: the static description a simulator executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Cluster name (e.g. `"K8s PaaS"`).
    pub(crate) name: String,
    /// Second octet of the internal `10.x.0.0/16` range, so different
    /// clusters in one process never collide.
    pub(crate) internal_octet: u8,
    /// Role table; `RoleId(i)` indexes it.
    pub(crate) roles: Vec<Role>,
    /// Directed role-to-role conversations.
    pub(crate) edges: Vec<RoleEdge>,
}

/// Incrementally constructs a validated [`Topology`].
#[derive(Debug)]
pub struct TopologyBuilder {
    topo: Topology,
}

impl TopologyBuilder {
    /// Start a topology with the given name and internal address octet.
    pub fn new(name: impl Into<String>, internal_octet: u8) -> Self {
        TopologyBuilder {
            topo: Topology {
                name: name.into(),
                internal_octet,
                roles: Vec::new(),
                edges: Vec::new(),
            },
        }
    }

    /// Add a role; returns its id for wiring edges.
    pub fn role(
        &mut self,
        name: impl Into<String>,
        kind: RoleKind,
        replicas: usize,
        service_ports: Vec<u16>,
    ) -> RoleId {
        let id = RoleId(self.topo.roles.len() as u16);
        self.topo.roles.push(Role { id, name: name.into(), kind, replicas, service_ports });
        id
    }

    /// Declare that `src` initiates connections to `dst` with `profile`.
    pub fn connect(&mut self, src: RoleId, dst: RoleId, profile: TrafficProfile) -> &mut Self {
        self.topo.edges.push(RoleEdge { src, dst, profile });
        self
    }

    /// Validate and finish.
    pub fn build(self) -> Result<Topology> {
        self.topo.validate()?;
        Ok(self.topo)
    }

    /// Finish without validating — a panic-free path for statically
    /// known-good construction sites (the built-in presets), whose output
    /// is re-validated by every consumer anyway ([`crate::sim::Simulator::new`]
    /// runs [`Topology::validate`] before simulating). Prefer
    /// [`TopologyBuilder::build`] for user-assembled topologies.
    pub(crate) fn build_unvalidated(self) -> Topology {
        self.topo
    }
}

impl Topology {
    /// Look up a role.
    pub fn role(&self, id: RoleId) -> Result<&Role> {
        self.roles.get(id.0 as usize).ok_or(Error::UnknownRole(id.0))
    }

    /// Find a role by its name.
    pub fn role_named(&self, name: &str) -> Option<&Role> {
        self.roles.iter().find(|r| r.name == name)
    }

    /// Check internal consistency: edges reference existing roles, every
    /// destination accepts connections, every role has at least one replica.
    pub(crate) fn validate(&self) -> Result<()> {
        for (i, r) in self.roles.iter().enumerate() {
            if r.id.0 as usize != i {
                return Err(Error::InvalidConfig(format!(
                    "role {} has id {} but sits at index {i}",
                    r.name, r.id.0
                )));
            }
            if r.replicas == 0 {
                return Err(Error::InvalidConfig(format!("role {} has zero replicas", r.name)));
            }
        }
        for e in &self.edges {
            let dst = self.role(e.dst)?;
            self.role(e.src)?;
            if dst.service_ports.is_empty() {
                return Err(Error::InvalidConfig(format!(
                    "edge targets role {} which accepts no connections",
                    dst.name
                )));
            }
            if !(e.profile.conns_per_min.is_finite() && e.profile.conns_per_min >= 0.0) {
                return Err(Error::InvalidConfig(format!(
                    "edge {} -> {} has invalid rate {}",
                    self.role(e.src)?.name,
                    dst.name,
                    e.profile.conns_per_min
                )));
            }
            if !(0.0..1.0).contains(&e.profile.continue_p) {
                return Err(Error::InvalidConfig(format!(
                    "edge {} -> {} has continue_p {} outside [0, 1)",
                    self.role(e.src)?.name,
                    dst.name,
                    e.profile.continue_p
                )));
            }
        }
        Ok(())
    }

    /// Total replicas whose telemetry is collected (the "#IPs monitored"
    /// column of Table 1).
    #[cfg(test)]
    pub(crate) fn monitored_count(&self) -> usize {
        self.roles.iter().filter(|r| r.is_monitored()).map(|r| r.replicas).sum()
    }

    /// Total replicas including external, unmonitored roles.
    #[cfg(test)]
    fn total_replicas(&self) -> usize {
        self.roles.iter().map(|r| r.replicas).sum()
    }

    /// The address of a role's replica slot.
    ///
    /// Monitored roles draw from the cluster's `10.x.0.0/16`; external roles
    /// from the `198.18.0.0/15` benchmark range. Assignment is deterministic:
    /// slots are numbered role-major, so address ↔ (role, slot) is stable
    /// across runs with the same topology.
    pub fn ip_of(&self, role: RoleId, slot: usize) -> Result<Ipv4Addr> {
        let r = self.role(role)?;
        // Role-major slot numbering within the internal or external pool.
        let mut index = 0usize;
        for other in &self.roles {
            if other.id == role {
                break;
            }
            if other.is_monitored() == r.is_monitored() {
                index += other.replicas;
            }
        }
        index += slot;
        if r.is_monitored() {
            // 10.<octet>.hi.lo with lo in 1..=250 — 62 500 usable addresses.
            let (hi, lo) = (index / 250, index % 250 + 1);
            if hi > 255 {
                return Err(Error::IpPoolExhausted { capacity: 256 * 250 });
            }
            Ok(Ipv4Addr::new(10, self.internal_octet, hi as u8, lo as u8))
        } else {
            // 198.18.0.0/15 for external endpoints: 2 * 65536 addresses.
            let (b, hi, lo) = (index / 65_536, (index / 256) % 256, index % 256);
            if b > 1 {
                return Err(Error::IpPoolExhausted { capacity: 2 * 65_536 });
            }
            Ok(Ipv4Addr::new(198, 18 + b as u8, hi as u8, lo as u8))
        }
    }

    /// All initial `(ip, role)` assignments — the simulator's ground truth.
    #[cfg(test)]
    fn initial_assignments(&self) -> Result<Vec<(Ipv4Addr, RoleId)>> {
        let mut out = Vec::with_capacity(self.total_replicas());
        for r in &self.roles {
            for slot in 0..r.replicas {
                out.push((self.ip_of(r.id, slot)?, r.id));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier() -> Topology {
        let mut b = TopologyBuilder::new("test", 7);
        let fe = b.role("frontend", RoleKind::Frontend, 3, vec![443]);
        let be = b.role("backend", RoleKind::Service, 2, vec![8080]);
        let ext = b.role("clients", RoleKind::ExternalClient, 10, vec![]);
        b.connect(ext, fe, TrafficProfile::rpc(5.0, 400.0, 8000.0));
        b.connect(fe, be, TrafficProfile::rpc(20.0, 300.0, 1500.0));
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_ids() {
        let t = two_tier();
        for (i, r) in t.roles.iter().enumerate() {
            assert_eq!(r.id.0 as usize, i);
        }
        assert_eq!(t.roles.len(), 3);
        assert_eq!(t.edges.len(), 2);
    }

    #[test]
    fn monitored_count_excludes_externals() {
        let t = two_tier();
        assert_eq!(t.monitored_count(), 5);
        assert_eq!(t.total_replicas(), 15);
    }

    #[test]
    fn ips_are_unique_and_deterministic() {
        let t = two_tier();
        let a = t.initial_assignments().unwrap();
        let b = t.initial_assignments().unwrap();
        assert_eq!(a, b, "assignment must be deterministic");
        let mut ips: Vec<_> = a.iter().map(|(ip, _)| *ip).collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), t.total_replicas(), "no duplicate addresses");
    }

    #[test]
    fn internal_and_external_pools_are_disjoint() {
        let t = two_tier();
        for (ip, role) in t.initial_assignments().unwrap() {
            let monitored = t.role(role).unwrap().is_monitored();
            assert_eq!(ip.octets()[0] == 10, monitored, "{ip} vs role monitoring");
        }
    }

    #[test]
    fn large_role_spans_subnets() {
        let mut b = TopologyBuilder::new("big", 1);
        let w = b.role("workers", RoleKind::Worker, 1400, vec![9000]);
        b.connect(w, w, TrafficProfile::rpc(1.0, 100.0, 100.0));
        let t = b.build().unwrap();
        let ips = t.initial_assignments().unwrap();
        assert_eq!(ips.len(), 1400);
        let third_octets: std::collections::HashSet<u8> =
            ips.iter().map(|(ip, _)| ip.octets()[2]).collect();
        assert!(third_octets.len() >= 6, "1400 replicas must span several /24s");
    }

    #[test]
    fn validation_rejects_portless_destination() {
        let mut b = TopologyBuilder::new("bad", 0);
        let a = b.role("a", RoleKind::Service, 1, vec![80]);
        let c = b.role("clients", RoleKind::ExternalClient, 1, vec![]);
        b.connect(a, c, TrafficProfile::rpc(1.0, 10.0, 10.0));
        assert!(matches!(b.build(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn validation_rejects_zero_replicas() {
        let mut b = TopologyBuilder::new("bad", 0);
        b.role("a", RoleKind::Service, 0, vec![80]);
        assert!(b.build().is_err());
    }

    #[test]
    fn validation_rejects_bad_continue_p() {
        let mut b = TopologyBuilder::new("bad", 0);
        let a = b.role("a", RoleKind::Service, 1, vec![80]);
        b.connect(a, a, TrafficProfile::rpc(1.0, 10.0, 10.0).with_continue_p(1.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn ip_pool_exhaustion_is_an_error() {
        let mut b = TopologyBuilder::new("huge", 0);
        b.role("w", RoleKind::Worker, 70_000, vec![1]);
        let t = b.topo; // skip validate; we only probe addressing
        assert!(matches!(t.ip_of(RoleId(0), 69_999), Err(Error::IpPoolExhausted { .. })));
    }
}
