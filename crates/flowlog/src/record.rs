//! The connection-summary schema (Table 2 of the paper).
//!
//! Every record summarizes one flow's activity within one aggregation
//! interval, as observed from the *local* VM's vantage point:
//!
//! | Time | Local IP | Local Port | Remote IP | Remote Port | #Pkts Sent | #Pkts Rcvd | #Bytes Sent | #Bytes Rcvd |
//!
//! The paper's schema has no protocol column; real NSG/VPC flow logs carry
//! one, and segmentation policies need it, so we keep it as an extension
//! field that codecs round-trip.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol of a flow.
///
/// Real flow logs carry an IANA protocol number; we model the two that
/// dominate cloud east-west traffic plus a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Protocol {
    /// Transmission Control Protocol (IANA 6).
    Tcp,
    /// User Datagram Protocol (IANA 17).
    Udp,
    /// Any other IANA protocol number.
    Other(u8),
}

impl Protocol {
    /// The IANA protocol number.
    pub(crate) fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    /// Construct from an IANA protocol number.
    pub fn from_number(n: u8) -> Self {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "TCP"),
            Protocol::Udp => write!(f, "UDP"),
            Protocol::Other(n) => write!(f, "P{n}"),
        }
    }
}

/// First ephemeral port: ports at or above never name a service (facets and policy share it).
pub const EPHEMERAL_START: u16 = 32_768;

/// The service port of a flow whose ends both look ephemeral, and the port
/// of a policy rule that matches every service.
pub const ANY_PORT: u16 = 0;

/// Best-effort service port of a flow: the non-ephemeral side's port — the
/// lower one when both are, as the lower is overwhelmingly the service — or
/// [`ANY_PORT`] when both sides look ephemeral. A flow and its mirror name
/// the same port, so both vantages of one wire flow agree on it.
///
/// Written as selects, not a four-way match: which side is the service
/// flips from record to record with the reporting vantage, and graph
/// construction asks once per record.
#[inline]
pub fn service_port(key: &FlowKey) -> u16 {
    // An ephemeral port reads as u16::MAX, which no service port is.
    let service = |port: u16| if port < EPHEMERAL_START { port } else { u16::MAX };
    match service(key.local_port).min(service(key.remote_port)) {
        u16::MAX => ANY_PORT,
        port => port,
    }
}

/// Identity of a flow as seen from the reporting (local) endpoint.
///
/// The same wire flow appears twice in a complete telemetry stream — once
/// from each endpoint's NIC — with local/remote swapped and sent/received
/// counters mirrored. [`FlowKey::canonical`] maps both observations to one
/// key so graph construction can de-duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    /// IP of the VM whose NIC produced the record.
    pub local_ip: Ipv4Addr,
    /// Local transport port.
    pub local_port: u16,
    /// IP of the peer.
    pub remote_ip: Ipv4Addr,
    /// Peer transport port.
    pub remote_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl FlowKey {
    /// Create a TCP flow key (the common case in tests and examples).
    pub fn tcp(local_ip: Ipv4Addr, local_port: u16, remote_ip: Ipv4Addr, remote_port: u16) -> Self {
        FlowKey { local_ip, local_port, remote_ip, remote_port, proto: Protocol::Tcp }
    }

    /// The same flow as seen from the other endpoint.
    pub fn reversed(&self) -> Self {
        FlowKey {
            local_ip: self.remote_ip,
            local_port: self.remote_port,
            remote_ip: self.local_ip,
            remote_port: self.local_port,
            proto: self.proto,
        }
    }

    /// A direction-independent identity: the lexicographically smaller
    /// `(ip, port)` endpoint becomes `local`. Both observations of one wire
    /// flow canonicalize to the same key.
    pub fn canonical(&self) -> Self {
        if (self.local_ip, self.local_port) <= (self.remote_ip, self.remote_port) {
            *self
        } else {
            self.reversed()
        }
    }

    /// True if this key is already in canonical orientation.
    pub fn is_canonical(&self) -> bool {
        (self.local_ip, self.local_port) <= (self.remote_ip, self.remote_port)
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} <-> {}:{}",
            self.proto, self.local_ip, self.local_port, self.remote_ip, self.remote_port
        )
    }
}

/// One connection summary: a flow's counters over one aggregation interval.
///
/// This is the paper's Table 2 record, the *only* input to every analysis in
/// this repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConnSummary {
    /// Start of the aggregation interval, seconds since the epoch.
    pub ts: u64,
    /// Flow identity from the reporting endpoint's vantage point.
    pub key: FlowKey,
    /// Packets sent by the local endpoint during the interval.
    pub pkts_sent: u64,
    /// Packets received by the local endpoint during the interval.
    pub pkts_rcvd: u64,
    /// Bytes sent by the local endpoint during the interval.
    pub bytes_sent: u64,
    /// Bytes received by the local endpoint during the interval.
    pub bytes_rcvd: u64,
}

impl ConnSummary {
    /// Total packets in both directions.
    pub fn pkts_total(&self) -> u64 {
        self.pkts_sent + self.pkts_rcvd
    }

    /// Total bytes in both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_sent + self.bytes_rcvd
    }

    /// The record re-expressed from the remote endpoint's vantage point
    /// (local/remote swapped, sent/received mirrored).
    pub fn mirrored(&self) -> Self {
        ConnSummary {
            ts: self.ts,
            key: self.key.reversed(),
            pkts_sent: self.pkts_rcvd,
            pkts_rcvd: self.pkts_sent,
            bytes_sent: self.bytes_rcvd,
            bytes_rcvd: self.bytes_sent,
        }
    }

    /// Sanity constraints a well-formed summary must satisfy: a non-zero
    /// interval of activity implies at least one packet, and bytes imply
    /// packets (a packet carries at least its headers, but bytes without any
    /// packet is impossible).
    #[expect(clippy::nonminimal_bool, reason = "the two rules read better stated separately")]
    pub fn is_well_formed(&self) -> bool {
        !(self.bytes_sent > 0 && self.pkts_sent == 0)
            && !(self.bytes_rcvd > 0 && self.pkts_rcvd == 0)
            && (self.pkts_total() > 0 || self.bytes_total() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn sample_key() -> FlowKey {
        FlowKey::tcp(ip(10, 0, 0, 5), 43512, ip(10, 0, 1, 9), 443)
    }

    #[test]
    fn protocol_numbers_round_trip() {
        for n in 0u8..=255 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
    }

    #[test]
    fn protocol_display() {
        assert_eq!(Protocol::Tcp.to_string(), "TCP");
        assert_eq!(Protocol::Udp.to_string(), "UDP");
        assert_eq!(Protocol::Other(47).to_string(), "P47");
    }

    #[test]
    fn reversed_twice_is_identity() {
        let k = sample_key();
        assert_eq!(k.reversed().reversed(), k);
    }

    #[test]
    fn canonical_is_direction_independent() {
        let k = sample_key();
        assert_eq!(k.canonical(), k.reversed().canonical());
        assert!(k.canonical().is_canonical());
    }

    #[test]
    fn canonical_orders_by_ip_then_port() {
        // Same IP both sides: port breaks the tie.
        let k = FlowKey::tcp(ip(10, 0, 0, 1), 9000, ip(10, 0, 0, 1), 80);
        let c = k.canonical();
        assert_eq!(c.local_port, 80);
        assert_eq!(c.remote_port, 9000);
    }

    #[test]
    fn mirrored_preserves_totals() {
        let s = ConnSummary {
            ts: 60,
            key: sample_key(),
            pkts_sent: 10,
            pkts_rcvd: 7,
            bytes_sent: 1400,
            bytes_rcvd: 900,
        };
        let m = s.mirrored();
        assert_eq!(m.bytes_sent, 900);
        assert_eq!(m.pkts_sent, 7);
        assert_eq!(m.bytes_total(), s.bytes_total());
        assert_eq!(m.pkts_total(), s.pkts_total());
        assert_eq!(m.key, s.key.reversed());
    }

    #[test]
    fn well_formedness_rules() {
        let mut s = ConnSummary {
            ts: 0,
            key: sample_key(),
            pkts_sent: 1,
            pkts_rcvd: 0,
            bytes_sent: 52,
            bytes_rcvd: 0,
        };
        assert!(s.is_well_formed());
        s.pkts_sent = 0;
        assert!(!s.is_well_formed(), "bytes without packets is impossible");
        s.bytes_sent = 0;
        assert!(s.is_well_formed(), "an all-zero record is vacuously fine");
    }
}
