//! Node identities and graph facets.
//!
//! The same telemetry can be rendered as many different graphs: the paper
//! stresses that *choosing which graph to construct requires networking
//! insight* — IP graphs are compact, IP-port graphs separate co-located
//! services, and service graphs aggregate replicas. A [`Facet`] is that
//! choice, mapping each record endpoint to a [`NodeId`].

use flowlog::record::{ConnSummary, EPHEMERAL_START};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Identity of a graph node under some facet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NodeId {
    /// A bare IP address (the IP-graph facet).
    Ip(Ipv4Addr),
    /// An `(IP, port)` endpoint (the IP-port-graph facet). The port is the
    /// *service* port for acceptors and the ephemeral port for initiators.
    IpPort(Ipv4Addr, u16),
    /// A named service/role (the service-graph facet); the id indexes the
    /// facet's service table.
    Service(u32),
    /// The aggregate node that heavy-hitter collapsing folds small
    /// contributors into.
    Other,
}

impl NodeId {
    /// The IP behind this node, when it has one.
    pub fn ip(&self) -> Option<Ipv4Addr> {
        match self {
            NodeId::Ip(ip) | NodeId::IpPort(ip, _) => Some(*ip),
            _ => None,
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Ip(ip) => write!(f, "{ip}"),
            NodeId::IpPort(ip, port) => write!(f, "{ip}:{port}"),
            NodeId::Service(id) => write!(f, "svc#{id}"),
            NodeId::Other => write!(f, "OTHER"),
        }
    }
}

/// A mapping from record endpoints to node identities.
#[derive(Debug, Clone, PartialEq)]
pub enum Facet {
    /// Nodes are IP addresses.
    Ip,
    /// Nodes are `(IP, port)` endpoints.
    IpPort,
    /// Nodes are `(IP, port)` for *service* ports but bare IPs for
    /// ephemeral ports — §3.2's "ephemeral ports … are collapsed". This is
    /// the facet that separates co-hosted services without letting
    /// ephemeral client ports shred neighbor-set overlap.
    IpServicePort,
    /// Nodes are services, resolved from IP through the given table; IPs not
    /// in the table appear as plain [`NodeId::Ip`] nodes (unknown externals).
    Service {
        /// IP → service-id resolution table.
        resolver: HashMap<Ipv4Addr, u32>,
        /// Display names indexed by service id.
        names: Vec<String>,
    },
}

impl Facet {
    /// Short name used in exports and experiment output.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Facet::Ip => "ip",
            Facet::IpPort => "ip-port",
            Facet::IpServicePort => "ip-service-port",
            Facet::Service { .. } => "service",
        }
    }

    /// The (local, remote) node pair a record contributes to.
    pub fn endpoints(&self, r: &ConnSummary) -> (NodeId, NodeId) {
        match self {
            Facet::Ip => (NodeId::Ip(r.key.local_ip), NodeId::Ip(r.key.remote_ip)),
            Facet::IpPort => (
                NodeId::IpPort(r.key.local_ip, r.key.local_port),
                NodeId::IpPort(r.key.remote_ip, r.key.remote_port),
            ),
            Facet::IpServicePort => {
                let collapse = |ip: std::net::Ipv4Addr, port: u16| {
                    if port < EPHEMERAL_START {
                        NodeId::IpPort(ip, port)
                    } else {
                        NodeId::Ip(ip)
                    }
                };
                (
                    collapse(r.key.local_ip, r.key.local_port),
                    collapse(r.key.remote_ip, r.key.remote_port),
                )
            }
            Facet::Service { resolver, .. } => {
                let resolve = |ip: Ipv4Addr| match resolver.get(&ip) {
                    Some(id) => NodeId::Service(*id),
                    None => NodeId::Ip(ip),
                };
                (resolve(r.key.local_ip), resolve(r.key.remote_ip))
            }
        }
    }

    /// Human-readable label for a node under this facet.
    pub fn label(&self, node: &NodeId) -> String {
        match (self, node) {
            (Facet::Service { names, .. }, NodeId::Service(id)) => {
                names.get(*id as usize).cloned().unwrap_or_else(|| format!("svc#{id}"))
            }
            _ => node.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlog::record::FlowKey;

    fn rec() -> ConnSummary {
        ConnSummary {
            ts: 0,
            key: FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 44_000, Ipv4Addr::new(10, 0, 1, 2), 443),
            pkts_sent: 1,
            pkts_rcvd: 1,
            bytes_sent: 100,
            bytes_rcvd: 100,
        }
    }

    #[test]
    fn ip_facet_ignores_ports() {
        let (a, b) = Facet::Ip.endpoints(&rec());
        assert_eq!(a, NodeId::Ip(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(b, NodeId::Ip(Ipv4Addr::new(10, 0, 1, 2)));
    }

    #[test]
    fn ipport_facet_keeps_ports() {
        let (a, b) = Facet::IpPort.endpoints(&rec());
        assert_eq!(a, NodeId::IpPort(Ipv4Addr::new(10, 0, 0, 1), 44_000));
        assert_eq!(b, NodeId::IpPort(Ipv4Addr::new(10, 0, 1, 2), 443));
    }

    #[test]
    fn ip_service_port_facet_collapses_ephemeral_side() {
        let (a, b) = Facet::IpServicePort.endpoints(&rec());
        // Local 44000 is ephemeral → bare IP; remote 443 keeps its port.
        assert_eq!(a, NodeId::Ip(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(b, NodeId::IpPort(Ipv4Addr::new(10, 0, 1, 2), 443));
    }

    #[test]
    fn ip_service_port_keeps_both_service_sides() {
        let mut r = rec();
        r.key.local_port = 8080;
        let (a, b) = Facet::IpServicePort.endpoints(&r);
        assert_eq!(a, NodeId::IpPort(Ipv4Addr::new(10, 0, 0, 1), 8080));
        assert_eq!(b, NodeId::IpPort(Ipv4Addr::new(10, 0, 1, 2), 443));
    }

    #[test]
    fn service_facet_resolves_known_ips_only() {
        let mut resolver = HashMap::new();
        resolver.insert(Ipv4Addr::new(10, 0, 0, 1), 3u32);
        let facet = Facet::Service { resolver, names: vec![String::new(); 4] };
        let (a, b) = facet.endpoints(&rec());
        assert_eq!(a, NodeId::Service(3));
        assert_eq!(b, NodeId::Ip(Ipv4Addr::new(10, 0, 1, 2)), "unknown IP stays an IP node");
    }

    #[test]
    fn service_labels_use_names() {
        let facet = Facet::Service {
            resolver: HashMap::new(),
            names: vec!["frontend".into(), "db".into()],
        };
        assert_eq!(facet.label(&NodeId::Service(1)), "db");
        assert_eq!(facet.label(&NodeId::Service(9)), "svc#9", "out-of-table id degrades");
        assert_eq!(facet.label(&NodeId::Other), "OTHER");
    }

    #[test]
    fn node_ordering_groups_by_ip() {
        // Role-major IP assignment + Ord on NodeId ⇒ sorting nodes groups
        // same-role replicas next to each other, which is what gives the
        // adjacency matrices of Figure 4 their banded look.
        let mut v = vec![
            NodeId::Ip(Ipv4Addr::new(10, 0, 1, 9)),
            NodeId::Ip(Ipv4Addr::new(10, 0, 0, 2)),
            NodeId::Ip(Ipv4Addr::new(10, 0, 0, 10)),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                NodeId::Ip(Ipv4Addr::new(10, 0, 0, 2)),
                NodeId::Ip(Ipv4Addr::new(10, 0, 0, 10)),
                NodeId::Ip(Ipv4Addr::new(10, 0, 1, 9)),
            ]
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId::Ip(Ipv4Addr::new(1, 2, 3, 4)).to_string(), "1.2.3.4");
        assert_eq!(NodeId::IpPort(Ipv4Addr::new(1, 2, 3, 4), 80).to_string(), "1.2.3.4:80");
        assert_eq!(NodeId::Other.to_string(), "OTHER");
    }
}
