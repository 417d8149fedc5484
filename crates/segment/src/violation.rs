//! Runtime policy checking over record streams.
//!
//! Once µsegments and policies exist, every connection summary can be
//! checked: traffic between segments with no allow rule — or to an address
//! in no segment at all — is a violation. Applied to a telemetry stream
//! this is a detector for exactly the attack classes the simulator injects:
//! lateral movement and port scans cross segment boundaries, exfiltration
//! and C2 beacons reach unknown external peers.

use crate::microseg::{SegmentId, Segmentation};
use crate::policy::{service_port, SegmentPolicy};
use flowlog::record::ConnSummary;
use serde::Serialize;
use std::net::Ipv4Addr;

/// Outcome of checking one record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// Policy explicitly allows this communication.
    Allowed,
    /// Segment pair has no allow rule (for this port, when port-scoped).
    DeniedPair {
        /// Segment of the reporting endpoint.
        local: SegmentId,
        /// Segment of the peer.
        remote: SegmentId,
        /// Service port of the flow.
        port: u16,
    },
    /// The peer is in no segment: an address never seen in normal operation.
    UnknownPeer {
        /// The unrecognized address.
        peer: Ipv4Addr,
    },
}

/// A flagged record.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Timestamp of the offending record.
    pub ts: u64,
    /// Reporting endpoint.
    pub local_ip: Ipv4Addr,
    /// Peer endpoint.
    pub remote_ip: Ipv4Addr,
    /// Service port.
    pub port: u16,
    /// Why it was flagged.
    pub verdict: Verdict,
    /// Bytes involved (severity signal).
    pub bytes: u64,
}

/// Checks records against a segmentation + policy.
#[derive(Debug)]
pub struct ViolationDetector {
    seg: Segmentation,
    policy: SegmentPolicy,
    checked: u64,
    flagged: u64,
}

impl ViolationDetector {
    /// New detector over a segmentation and its policy.
    pub fn new(seg: Segmentation, policy: SegmentPolicy) -> Self {
        ViolationDetector { seg, policy, checked: 0, flagged: 0 }
    }

    /// Records checked and flagged so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.checked, self.flagged)
    }

    /// Check one record; `Some(violation)` if it breaks policy.
    pub fn check(&mut self, r: &ConnSummary) -> Option<Violation> {
        self.checked += 1;
        let port = service_port(&r.key);
        let verdict =
            match (self.seg.segment_of(r.key.local_ip), self.seg.segment_of(r.key.remote_ip)) {
                (Some(a), Some(b)) => {
                    if self.policy.allows(a, b, port) {
                        return None;
                    }
                    Verdict::DeniedPair { local: a, remote: b, port }
                }
                // The local endpoint is inside the subscription by construction
                // (its NIC produced the record); an unsegmented local address
                // can only mean a just-churned-in resource — report the peer
                // side when it is the stranger, otherwise the local address.
                (Some(_), None) => Verdict::UnknownPeer { peer: r.key.remote_ip },
                (None, _) => Verdict::UnknownPeer { peer: r.key.local_ip },
            };
        self.flagged += 1;
        Some(Violation {
            ts: r.ts,
            local_ip: r.key.local_ip,
            remote_ip: r.key.remote_ip,
            port,
            verdict,
            bytes: r.bytes_total(),
        })
    }

    /// Check a batch, returning only the violations.
    pub fn check_all<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a ConnSummary>,
    ) -> Vec<Violation> {
        records.into_iter().filter_map(|r| self.check(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlog::record::FlowKey;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    fn setup() -> ViolationDetector {
        let seg = Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1), ip(0, 2)], true),
            ("db".into(), vec![ip(1, 1)], true),
            ("cache".into(), vec![ip(2, 1)], true),
        ]);
        let baseline = vec![rec(ip(0, 1), 40_000, ip(1, 1), 5432)];
        let policy = SegmentPolicy::learn(&baseline, &seg, true);
        ViolationDetector::new(seg, policy)
    }

    fn rec(l: Ipv4Addr, lp: u16, r: Ipv4Addr, rp: u16) -> ConnSummary {
        ConnSummary {
            ts: 60,
            key: FlowKey::tcp(l, lp, r, rp),
            pkts_sent: 2,
            pkts_rcvd: 2,
            bytes_sent: 500,
            bytes_rcvd: 300,
        }
    }

    #[test]
    fn allowed_traffic_passes() {
        let mut d = setup();
        assert!(d.check(&rec(ip(0, 2), 41_000, ip(1, 1), 5432)).is_none());
        assert_eq!(d.counts(), (1, 0));
    }

    #[test]
    fn cross_segment_traffic_flagged() {
        let mut d = setup();
        let v = d.check(&rec(ip(0, 1), 41_000, ip(2, 1), 6379)).expect("must flag");
        assert!(matches!(v.verdict, Verdict::DeniedPair { port: 6379, .. }));
        assert_eq!(v.bytes, 800);
    }

    #[test]
    fn wrong_port_flagged_when_port_scoped() {
        let mut d = setup();
        // web → db is allowed on 5432 only; SSH to the db is lateral movement.
        let v = d.check(&rec(ip(0, 1), 41_000, ip(1, 1), 22)).expect("must flag");
        assert!(matches!(v.verdict, Verdict::DeniedPair { port: 22, .. }));
    }

    #[test]
    fn unknown_peer_flagged() {
        let mut d = setup();
        let c2 = Ipv4Addr::new(203, 0, 113, 7);
        let v = d.check(&rec(ip(0, 1), 41_000, c2, 443)).expect("must flag");
        assert_eq!(v.verdict, Verdict::UnknownPeer { peer: c2 });
    }

    #[test]
    fn batch_check_counts() {
        let mut d = setup();
        let batch = vec![
            rec(ip(0, 1), 41_000, ip(1, 1), 5432), // ok
            rec(ip(0, 1), 41_001, ip(2, 1), 6379), // denied pair
            rec(ip(0, 1), 41_002, Ipv4Addr::new(198, 51, 100, 1), 443), // unknown
        ];
        let vs = d.check_all(&batch);
        assert_eq!(vs.len(), 2);
        assert_eq!(d.counts(), (3, 2));
    }
}
