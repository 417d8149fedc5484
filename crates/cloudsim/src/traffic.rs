//! Traffic profiles: how two roles talk.
//!
//! A profile describes one directed role-to-role conversation pattern — the
//! connection arrival rate, how a source replica picks among destination
//! replicas, the distribution of bytes each way, and how long connections
//! live. These few knobs reproduce the canonical patterns the paper observes
//! in real adjacency matrices (§2.2): chatty cliques, hub-and-spoke, and
//! heavy-tailed per-node traffic shares.

use crate::randx::LogNormal;
use flowlog::record::Protocol;
use serde::{Deserialize, Serialize};

/// How a source replica chooses destination replicas.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fanout {
    /// Every connection picks a destination uniformly at random — the load-
    /// balanced service call pattern.
    Uniform,
    /// Replica *i* talks (mostly) to replica *i mod n* — sticky partnering,
    /// e.g. local sidecars or shard-affine clients.
    Sticky,
    /// Each source talks to **all** destination replicas each interval — the
    /// all-to-all shuffle of query engines; creates chatty cliques.
    All,
    /// Zipf-skewed choice with the given exponent — popularity skew, e.g.
    /// hot partitions or popular backends.
    Zipf(f64),
}

/// Average packet payload+header size used to derive packet counts from byte
/// counts. Cloud east-west traffic mixes full MSS data packets with ACKs;
/// ~900 B/packet is a reasonable blended average.
pub(crate) const AVG_PACKET_BYTES: f64 = 900.0;

/// A directed traffic pattern from every replica of a source role to the
/// replicas of a destination role.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficProfile {
    /// Mean new connections per minute *per source replica* at load 1.0.
    pub(crate) conns_per_min: f64,
    /// Destination-choice policy.
    pub(crate) fanout: Fanout,
    /// Distribution of bytes sent by the connection initiator, per minute of
    /// flow lifetime (median, sigma).
    pub(crate) fwd_bytes_per_min: (f64, f64),
    /// Distribution of bytes sent back by the acceptor, per minute.
    pub(crate) rev_bytes_per_min: (f64, f64),
    /// Probability a live connection survives into the next minute.
    /// 0 ⇒ all connections are sub-minute; 0.9 ⇒ mean lifetime 10 minutes.
    pub(crate) continue_p: f64,
    /// Transport protocol of the conversation (TCP for almost everything in
    /// a cloud; UDP for DNS and some telemetry).
    pub(crate) proto: Protocol,
}

impl TrafficProfile {
    /// A short request/response RPC profile (`conns_per_min` calls of roughly
    /// `req`/`resp` bytes each, all sub-minute).
    pub fn rpc(conns_per_min: f64, req: f64, resp: f64) -> Self {
        TrafficProfile {
            conns_per_min,
            fanout: Fanout::Uniform,
            fwd_bytes_per_min: (req, 0.8),
            rev_bytes_per_min: (resp, 1.0),
            continue_p: 0.0,
            proto: Protocol::Tcp,
        }
    }

    /// A persistent bulk-transfer profile (long-lived connections moving
    /// roughly `bytes_per_min` each way per minute).
    pub fn bulk(conns_per_min: f64, fwd_per_min: f64, rev_per_min: f64) -> Self {
        TrafficProfile {
            conns_per_min,
            fanout: Fanout::Uniform,
            fwd_bytes_per_min: (fwd_per_min, 0.6),
            rev_bytes_per_min: (rev_per_min, 0.6),
            continue_p: 0.85,
            proto: Protocol::Tcp,
        }
    }

    /// Override the fanout policy (builder style).
    pub fn with_fanout(mut self, fanout: Fanout) -> Self {
        self.fanout = fanout;
        self
    }

    /// Override the continuation probability (builder style).
    pub fn with_continue_p(mut self, p: f64) -> Self {
        self.continue_p = p;
        self
    }

    /// Override the transport protocol (builder style).
    pub(crate) fn with_proto(mut self, proto: Protocol) -> Self {
        self.proto = proto;
        self
    }

    /// Log-normal sampler for initiator bytes per minute.
    pub(crate) fn fwd_dist(&self) -> LogNormal {
        LogNormal::new(self.fwd_bytes_per_min.0.max(1.0), self.fwd_bytes_per_min.1)
    }

    /// Log-normal sampler for acceptor bytes per minute.
    pub(crate) fn rev_dist(&self) -> LogNormal {
        LogNormal::new(self.rev_bytes_per_min.0.max(1.0), self.rev_bytes_per_min.1)
    }
}

/// Derive a packet count from a byte count: at least one packet for any
/// non-zero byte volume, otherwise bytes divided by the blended average
/// packet size.
pub(crate) fn packets_for_bytes(bytes: u64) -> u64 {
    if bytes == 0 {
        0
    } else {
        ((bytes as f64 / AVG_PACKET_BYTES).ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_scale_with_bytes() {
        assert_eq!(packets_for_bytes(0), 0);
        assert_eq!(packets_for_bytes(1), 1);
        assert_eq!(packets_for_bytes(900), 1);
        assert_eq!(packets_for_bytes(901), 2);
        assert!(packets_for_bytes(1_000_000) >= 1000);
    }

    #[test]
    fn rpc_profile_is_short_lived() {
        let p = TrafficProfile::rpc(10.0, 500.0, 2000.0);
        assert_eq!(p.continue_p, 0.0);
    }

    #[test]
    fn builders_compose() {
        let p = TrafficProfile::rpc(1.0, 100.0, 100.0)
            .with_fanout(Fanout::Zipf(1.1))
            .with_continue_p(0.5);
        assert_eq!(p.fanout, Fanout::Zipf(1.1));
        assert_eq!(p.continue_p, 0.5);
    }

    #[test]
    fn distributions_guard_against_zero_median() {
        let p = TrafficProfile::rpc(1.0, 0.0, 0.0);
        // Must not panic; medians are clamped to at least one byte.
        let _ = p.fwd_dist();
        let _ = p.rev_dist();
    }

    #[test]
    fn proto_override_applies() {
        let p = TrafficProfile::rpc(1.0, 100.0, 100.0).with_proto(Protocol::Udp);
        assert_eq!(p.proto, Protocol::Udp);
        assert_eq!(TrafficProfile::bulk(1.0, 1e6, 1e4).proto, Protocol::Tcp);
    }

    #[test]
    fn packet_derivation_is_monotone() {
        let mut last = 0;
        for bytes in [0u64, 1, 899, 900, 901, 9000, 1 << 20, 1 << 30] {
            let pkts = packets_for_bytes(bytes);
            assert!(pkts >= last, "packets must not decrease as bytes grow");
            last = pkts;
        }
        // A full packet's worth of bytes is never more than one packet off
        // the exact ratio.
        let pkts = packets_for_bytes(90_000);
        assert_eq!(pkts, 100);
    }

    #[test]
    fn profiles_round_trip_through_serde() {
        let p = TrafficProfile::bulk(3.0, 5e5, 2e4)
            .with_fanout(Fanout::Zipf(1.01))
            .with_proto(Protocol::Udp);
        let json = serde_json::to_string_pretty(&p).expect("serializes");
        let back: TrafficProfile = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, p);
    }
}
