//! Role identities.
//!
//! A *role* is the unit of redundancy in cloud software: many resources run
//! the same code for scale-out, so a deployment has far fewer roles than
//! resources. This is the structural fact the paper's auto-segmentation
//! exploits, and the simulator makes it explicit so segmentations can be
//! scored against ground truth.

use serde::{Deserialize, Serialize};

/// Compact role identifier; index into a topology's role table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RoleId(pub u16);

/// Broad classification of what a role does; drives default traffic shapes
/// and which analyses treat the role as a hub, client, or workload node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoleKind {
    /// Public-facing request servers (web front-ends, API gateways).
    Frontend,
    /// Internal request-serving tiers (microservices, mid-tiers).
    Service,
    /// Stateful stores: databases, caches, blob stores.
    Datastore,
    /// Control-plane hubs: API servers, job managers, schedulers.
    ControlPlane,
    /// Telemetry / logging sinks.
    TelemetrySink,
    /// Batch/query workers (the KQuery executors).
    Worker,
    /// Load generators co-located in the cluster.
    LoadGenerator,
    /// External clients outside the subscription (not monitored).
    ExternalClient,
    /// External services the subscription calls out to (not monitored).
    ExternalService,
}

impl RoleKind {
    /// Whether resources of this kind live inside the subscription and thus
    /// have their NIC telemetry collected.
    pub(crate) fn is_monitored(self) -> bool {
        !matches!(self, RoleKind::ExternalClient | RoleKind::ExternalService)
    }
}

/// A role: name, kind, replica count, and the service ports it listens on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Role {
    /// Identifier; equals the role's index in the topology.
    pub id: RoleId,
    /// Human-readable name, e.g. `"frontend"` or `"k8s-apiserver"`.
    pub(crate) name: String,
    /// Broad classification.
    pub(crate) kind: RoleKind,
    /// Number of replicas (VMs/pods/clients) playing this role initially.
    pub replicas: usize,
    /// Ports this role accepts connections on; empty for pure clients.
    pub(crate) service_ports: Vec<u16>,
}

impl Role {
    /// Whether this role's replicas contribute telemetry records.
    pub(crate) fn is_monitored(&self) -> bool {
        self.kind.is_monitored()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_roles_are_unmonitored() {
        assert!(!RoleKind::ExternalClient.is_monitored());
        assert!(!RoleKind::ExternalService.is_monitored());
        assert!(RoleKind::Frontend.is_monitored());
        assert!(RoleKind::ControlPlane.is_monitored());
    }
}
