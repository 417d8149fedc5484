//! Edge and node counters.

use serde::{Deserialize, Serialize};

/// Traffic counters on one undirected edge.
///
/// `fwd` is traffic flowing from the edge's lower-ordered node to the
/// higher-ordered one; `rev` is the opposite direction. Keeping the split
/// costs little and lets analyses reason about asymmetry (e.g. exfiltration
/// is extremely lopsided).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeStats {
    /// Bytes from lower node to higher node.
    pub bytes_fwd: u64,
    /// Bytes from higher node to lower node.
    pub bytes_rev: u64,
    /// Packets from lower node to higher node.
    pub pkts_fwd: u64,
    /// Packets from higher node to lower node.
    pub pkts_rev: u64,
    /// Distinct connections observed on this edge in the window.
    pub conns: u64,
}

impl EdgeStats {
    /// Total bytes both ways.
    pub fn bytes(&self) -> u64 {
        self.bytes_fwd + self.bytes_rev
    }

    /// Total packets both ways.
    pub fn pkts(&self) -> u64 {
        self.pkts_fwd + self.pkts_rev
    }

    /// Merge another edge's counters into this one (saturating).
    pub(crate) fn absorb(&mut self, other: &EdgeStats) {
        self.bytes_fwd = self.bytes_fwd.saturating_add(other.bytes_fwd);
        self.bytes_rev = self.bytes_rev.saturating_add(other.bytes_rev);
        self.pkts_fwd = self.pkts_fwd.saturating_add(other.pkts_fwd);
        self.pkts_rev = self.pkts_rev.saturating_add(other.pkts_rev);
        self.conns = self.conns.saturating_add(other.conns);
    }

    /// The same edge seen with its endpoints swapped.
    pub(crate) fn reversed(&self) -> EdgeStats {
        EdgeStats {
            bytes_fwd: self.bytes_rev,
            bytes_rev: self.bytes_fwd,
            pkts_fwd: self.pkts_rev,
            pkts_rev: self.pkts_fwd,
            conns: self.conns,
        }
    }
}

/// Aggregate traffic counters for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Bytes on all incident edges (each edge counted once).
    pub bytes: u64,
    /// Packets on all incident edges.
    pub(crate) pkts: u64,
    /// Connections on all incident edges.
    pub conns: u64,
    /// Number of distinct neighbors.
    pub degree: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(bf: u64, br: u64) -> EdgeStats {
        EdgeStats { bytes_fwd: bf, bytes_rev: br, pkts_fwd: bf / 100, pkts_rev: br / 100, conns: 1 }
    }

    #[test]
    fn totals_sum_directions() {
        let e = edge(300, 100);
        assert_eq!(e.bytes(), 400);
        assert_eq!(e.pkts(), 4);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = edge(100, 50);
        a.absorb(&edge(10, 5));
        assert_eq!(a.bytes_fwd, 110);
        assert_eq!(a.bytes_rev, 55);
        assert_eq!(a.conns, 2);
    }

    #[test]
    fn absorb_saturates() {
        let mut a = EdgeStats { bytes_fwd: u64::MAX, ..Default::default() };
        a.absorb(&edge(10, 0));
        assert_eq!(a.bytes_fwd, u64::MAX);
    }

    #[test]
    fn reversed_swaps_directions() {
        let e = edge(300, 100);
        let r = e.reversed();
        assert_eq!(r.bytes_fwd, 100);
        assert_eq!(r.bytes_rev, 300);
        assert_eq!(r.reversed(), e, "involution");
    }
}
