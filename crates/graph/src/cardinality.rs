//! HyperLogLog cardinality estimation for graphs too large to materialize.
//!
//! Table 1 reports IP-port graphs with up to 12 M nodes and 79 M edges.
//! Materializing that graph needs gigabytes; *counting* it needs kilobytes.
//! [`GraphCardinality`] streams records and estimates distinct node and edge
//! counts under any facet with two HyperLogLog sketches — the approach a
//! low-COGS analytics tier would actually deploy.

use crate::node::{Facet, NodeId};
use flowlog::record::ConnSummary;

/// Register-index bits; 2^14 = 16384 registers ≈ 0.8% standard error
/// (`1.04 / √(2^p)`), 16 KiB per sketch.
const P: u32 = 14;

/// Classic HyperLogLog distinct counter over 64-bit hashes.
#[derive(Debug, Clone)]
pub(crate) struct HyperLogLog {
    /// `2^P` one-byte registers.
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Empty sketch (14 index bits, 16 KiB).
    pub(crate) fn new() -> Self {
        HyperLogLog { registers: vec![0; 1 << P] }
    }

    /// Insert a hashable item (uses FNV-1a with avalanche finish).
    pub(crate) fn insert<T: std::hash::Hash>(&mut self, item: &T) {
        let h = hash64(item);
        let idx = (h >> (64 - P)) as usize;
        let rest = h << P;
        // Rank: leading zeros of the remaining bits, plus one. A zero
        // remainder gets the maximum rank.
        let rank = if rest == 0 { (64 - P + 1) as u8 } else { rest.leading_zeros() as u8 + 1 };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated distinct count, with small-range (linear counting) and
    /// standard bias corrections.
    pub(crate) fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let mut sum = 0.0;
        let mut zeros = 0usize;
        for &r in &self.registers {
            sum += 1.0 / (1u64 << r) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            // Linear counting for the small range.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

/// 64-bit FNV-1a over the `Hash` representation, finished with a splitmix64
/// avalanche so high bits (used for register selection) are well mixed.
pub(crate) fn hash64<T: std::hash::Hash>(item: &T) -> u64 {
    struct Fnv(u64);
    impl std::hash::Hasher for Fnv {
        fn finish(&self) -> u64 {
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    std::hash::Hash::hash(item, &mut h);
    std::hash::Hasher::finish(&h)
}

/// Streaming node/edge cardinality estimator for one facet.
#[derive(Debug, Clone)]
pub struct GraphCardinality {
    facet: Facet,
    nodes: HyperLogLog,
    edges: HyperLogLog,
}

impl GraphCardinality {
    /// New estimator for `facet`.
    pub fn new(facet: Facet) -> Self {
        GraphCardinality { facet, nodes: HyperLogLog::new(), edges: HyperLogLog::new() }
    }

    /// Offer one record.
    pub fn add(&mut self, r: &ConnSummary) {
        let (a, b) = self.facet.endpoints(r);
        self.nodes.insert(&a);
        self.nodes.insert(&b);
        let key: (NodeId, NodeId) = if a <= b { (a, b) } else { (b, a) };
        self.edges.insert(&key);
    }

    /// Estimated distinct node count.
    pub fn node_estimate(&self) -> f64 {
        self.nodes.estimate()
    }

    /// Estimated distinct edge count.
    pub fn edge_estimate(&self) -> f64 {
        self.edges.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlog::record::FlowKey;
    use std::net::Ipv4Addr;

    #[test]
    fn small_counts_are_near_exact() {
        let mut h = HyperLogLog::new();
        for i in 0..100u64 {
            h.insert(&i);
        }
        let e = h.estimate();
        assert!((e - 100.0).abs() < 3.0, "estimate {e} for 100 items");
    }

    #[test]
    fn large_counts_within_two_percent() {
        let mut h = HyperLogLog::new();
        let n = 1_000_000u64;
        for i in 0..n {
            h.insert(&i);
        }
        let e = h.estimate();
        let err = (e - n as f64).abs() / n as f64;
        assert!(err < 0.02, "relative error {err} at n={n}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new();
        for _ in 0..10 {
            for i in 0..1000u64 {
                h.insert(&i);
            }
        }
        let e = h.estimate();
        assert!((e - 1000.0).abs() / 1000.0 < 0.05, "estimate {e}");
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        assert_eq!(HyperLogLog::new().estimate(), 0.0);
    }

    #[test]
    fn graph_cardinality_tracks_facet() {
        let mut gc = GraphCardinality::new(Facet::IpPort);
        // 100 clients, each with 10 distinct ephemeral ports, one server.
        for c in 0..100u32 {
            for p in 0..10u16 {
                let r = ConnSummary {
                    ts: 0,
                    key: FlowKey::tcp(
                        Ipv4Addr::from(0x0a00_0000 + c),
                        40_000 + p,
                        Ipv4Addr::new(10, 1, 0, 1),
                        443,
                    ),
                    pkts_sent: 1,
                    pkts_rcvd: 1,
                    bytes_sent: 10,
                    bytes_rcvd: 10,
                };
                gc.add(&r);
            }
        }
        // 1000 client endpoints + 1 server endpoint; 1000 edges.
        let nodes = gc.node_estimate();
        let edges = gc.edge_estimate();
        assert!((nodes - 1001.0).abs() / 1001.0 < 0.05, "nodes {nodes}");
        assert!((edges - 1000.0).abs() / 1000.0 < 0.05, "edges {edges}");
        // Constant memory regardless of graph size: two 16 KiB sketches.
        assert!(gc.nodes.registers.len() + gc.edges.registers.len() <= 64 * 1024);
    }
}
