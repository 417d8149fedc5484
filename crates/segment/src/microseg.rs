//! µsegments: groups of same-role resources. Policies ask `segment_of` twice
//! per record: its map is on the record path's hasher ([`commgraph_graph::hash`]).

use crate::error::{Error, Result};
use algos::RoleInference;
use commgraph_graph::hash::FixedState;
use commgraph_graph::{CommGraph, NodeId};
use serde::Serialize;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Dense identifier of a µsegment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct SegmentId(pub u16);

/// One µsegment: a set of addresses playing the same inferred role.
#[derive(Debug, Clone, Serialize)]
pub struct Segment {
    /// Identifier; equals the segment's index.
    pub(crate) id: SegmentId,
    /// Display name (`"seg-3"` by default; renameable by operators).
    pub name: String,
    /// Member addresses.
    pub members: Vec<Ipv4Addr>,
    /// Whether members are inside the subscription (monitored). External
    /// peers get segments too, so policies can constrain egress, but they
    /// are not enforcement targets.
    pub(crate) internal: bool,
}

/// A complete partition of a graph's IP nodes into µsegments.
#[derive(Debug, Clone, Serialize)]
pub struct Segmentation {
    segments: Vec<Segment>,
    // bound: one entry per IP node of the window's graph it was built from.
    #[serde(skip)]
    ip_to_segment: HashMap<Ipv4Addr, SegmentId, FixedState>,
}

impl Segmentation {
    /// The empty segmentation: no segments, no members. A graceful
    /// fallback when a graph/inference pair cannot be segmented — every
    /// lookup misses, so downstream policies learn nothing.
    pub fn empty() -> Self {
        Segmentation { segments: Vec::new(), ip_to_segment: HashMap::default() }
    }

    /// Build from a role inference over an IP-facet graph.
    ///
    /// `is_internal` classifies addresses (the monitored inventory, which a
    /// cloud provider always has). Nodes that are not IPs (e.g. the
    /// collapsed `Other` node) are skipped — they cannot be policy subjects.
    /// A 65 537th segment is [`Error::InvalidArg`]: its id would alias segment 0.
    pub fn from_inference(
        g: &CommGraph,
        inference: &RoleInference,
        is_internal: impl Fn(Ipv4Addr) -> bool,
    ) -> Result<Self> {
        if g.facet_name() != "ip" {
            return Err(Error::WrongFacet { got: g.facet_name().to_string() });
        }
        if inference.labels.len() != g.node_count() {
            return Err(Error::LabelMismatch {
                nodes: g.node_count(),
                labels: inference.labels.len(),
            });
        }
        // Split each inferred role into an internal and an external segment
        // when it mixes both kinds; policies treat them differently.
        let mut buckets: HashMap<(usize, bool), Vec<Ipv4Addr>> = HashMap::new();
        for (idx, node) in g.nodes().iter().enumerate() {
            if let NodeId::Ip(ip) = node {
                let internal = is_internal(*ip);
                buckets.entry((inference.labels[idx], internal)).or_default().push(*ip);
            }
        }
        let mut keys: Vec<(usize, bool)> = buckets.keys().copied().collect();
        keys.sort_by_key(|&(role, internal)| (role, !internal));
        let mut segments = Vec::with_capacity(keys.len());
        let mut ip_to_segment = HashMap::default();
        for (role, internal) in keys {
            let Ok(id) = u16::try_from(segments.len()).map(SegmentId) else {
                return Err(Error::InvalidArg("more than 65 536 segments".into()));
            };
            let Some(mut members) = buckets.remove(&(role, internal)) else {
                continue; // key came from the map; unreachable, but not worth a panic
            };
            members.sort();
            for ip in &members {
                ip_to_segment.insert(*ip, id);
            }
            segments.push(Segment {
                id,
                name: format!("seg-{role}{}", if internal { "" } else { "-ext" }),
                members,
                internal,
            });
        }
        Ok(Segmentation { segments, ip_to_segment })
    }

    /// Build directly from explicit member lists (tests, manual labeling).
    ///
    /// # Panics
    /// Panics on more than 65 536 groups: a `u16` id would alias segment 0.
    pub fn from_members(groups: Vec<(String, Vec<Ipv4Addr>, bool)>) -> Self {
        assert!(groups.len() <= 1 << 16, "{} segments exceed u16 ids", groups.len());
        let mut segments = Vec::with_capacity(groups.len());
        let mut ip_to_segment = HashMap::default();
        for (i, (name, mut members, internal)) in groups.into_iter().enumerate() {
            let id = SegmentId(i as u16);
            members.sort();
            for ip in &members {
                ip_to_segment.insert(*ip, id);
            }
            segments.push(Segment { id, name, members, internal });
        }
        Segmentation { segments, ip_to_segment }
    }

    /// All segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the segmentation has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segment an address belongs to, if any.
    pub fn segment_of(&self, ip: Ipv4Addr) -> Option<SegmentId> {
        self.ip_to_segment.get(&ip).copied()
    }

    /// A segment by id.
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.0 as usize]
    }

    /// Total member count across internal segments — the enforcement scope.
    pub fn internal_members(&self) -> usize {
        self.segments.iter().filter(|s| s.internal).map(|s| s.members.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph_graph::EdgeStats;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    fn graph_and_inference() -> (CommGraph, RoleInference) {
        let mut edges = HashMap::new();
        let st = EdgeStats { bytes_fwd: 100, conns: 1, ..Default::default() };
        edges.insert((NodeId::Ip(ip(0, 1)), NodeId::Ip(ip(1, 1))), st);
        edges.insert((NodeId::Ip(ip(0, 2)), NodeId::Ip(ip(1, 1))), st);
        let g = CommGraph::from_edge_map("ip", 0, 3600, edges);
        // Nodes sort: 10.0.0.1, 10.0.0.2, 10.0.1.1 → roles 0, 0, 1.
        let inference = RoleInference {
            labels: vec![0, 0, 1],
            n_roles: 2,
            method: "test".into(),
            clustering_modularity: 0.0,
        };
        (g, inference)
    }

    #[test]
    fn builds_segments_from_roles() {
        let (g, inf) = graph_and_inference();
        let s = Segmentation::from_inference(&g, &inf, |_| true).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.segment_of(ip(0, 1)), s.segment_of(ip(0, 2)));
        assert_ne!(s.segment_of(ip(0, 1)), s.segment_of(ip(1, 1)));
        assert_eq!(s.internal_members(), 3);
    }

    #[test]
    fn splits_internal_and_external_members_of_one_role() {
        let (g, inf) = graph_and_inference();
        let s = Segmentation::from_inference(&g, &inf, |ip| ip.octets()[3] == 1).unwrap();
        // Role 0 has members .1 (internal) and .2 (external) → two segments.
        assert_eq!(s.len(), 3);
        assert_ne!(s.segment_of(ip(0, 1)), s.segment_of(ip(0, 2)));
        let ext = s.segment(s.segment_of(ip(0, 2)).unwrap());
        assert!(!ext.internal);
        assert!(ext.name.ends_with("-ext"));
    }

    #[test]
    fn rejects_wrong_facet() {
        let g = CommGraph::from_edge_map("ip-port", 0, 60, HashMap::new());
        let inf = RoleInference {
            labels: vec![],
            n_roles: 0,
            method: "t".into(),
            clustering_modularity: 0.0,
        };
        assert!(matches!(
            Segmentation::from_inference(&g, &inf, |_| true),
            Err(Error::WrongFacet { .. })
        ));
    }

    #[test]
    fn rejects_label_mismatch() {
        let (g, mut inf) = graph_and_inference();
        inf.labels.pop();
        assert!(matches!(
            Segmentation::from_inference(&g, &inf, |_| true),
            Err(Error::LabelMismatch { .. })
        ));
    }

    /// `n` singleton roles over a chain of `n` addresses.
    fn singletons(n: u32) -> (CommGraph, RoleInference) {
        let node = |i: u32| NodeId::Ip(Ipv4Addr::from(0x0A00_0000 + i));
        let st = EdgeStats { bytes_fwd: 1, conns: 1, ..Default::default() };
        let edges: HashMap<_, _> = (1..n).map(|i| ((node(i - 1), node(i)), st)).collect();
        let g = CommGraph::from_edge_map("ip", 0, 3600, edges);
        let inference = RoleInference {
            labels: (0..n as usize).collect(),
            n_roles: n as usize,
            method: "test".into(),
            clustering_modularity: 0.0,
        };
        (g, inference)
    }

    #[test]
    fn segment_ids_never_wrap() {
        // 65 536 segments fit a u16 id exactly; the last one is 65 535.
        let (g, inf) = singletons(65_536);
        let s = Segmentation::from_inference(&g, &inf, |_| true).unwrap();
        assert_eq!(s.len(), 65_536);
        assert_eq!(s.segment_of(Ipv4Addr::from(0x0A00_FFFF)), Some(SegmentId(u16::MAX)));
        assert_eq!(s.segment_of(Ipv4Addr::from(0x0A00_0000)), Some(SegmentId(0)));
        let groups = |n: u32| -> Vec<_> {
            (0..n).map(|i| (format!("s{i}"), vec![Ipv4Addr::from(0x0A00_0000 + i)], true)).collect()
        };
        let m = Segmentation::from_members(groups(65_536));
        assert_eq!(m.segments().last().map(|s| s.id), Some(SegmentId(u16::MAX)));
        // One more would alias segment 0: refused both ways.
        let (g, inf) = singletons(65_537);
        assert!(matches!(
            Segmentation::from_inference(&g, &inf, |_| true),
            Err(Error::InvalidArg(_))
        ));
        assert!(std::panic::catch_unwind(|| Segmentation::from_members(groups(65_537))).is_err());
    }

    #[test]
    fn from_members_round_trips() {
        let s = Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1), ip(0, 2)], true),
            ("clients".into(), vec![ip(9, 9)], false),
        ]);
        assert_eq!(s.segment(SegmentId(0)).name, "web");
        assert_eq!(s.segment_of(ip(9, 9)), Some(SegmentId(1)));
        assert_eq!(s.segment_of(ip(5, 5)), None);
        assert_eq!(s.internal_members(), 2);
    }

    #[test]
    fn members_are_sorted() {
        let s = Segmentation::from_members(vec![(
            "w".into(),
            vec![ip(0, 9), ip(0, 1), ip(0, 5)],
            true,
        )]);
        let m = &s.segment(SegmentId(0)).members;
        assert!(m.windows(2).all(|w| w[0] < w[1]));
    }
}
