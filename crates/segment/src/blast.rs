//! Blast-radius measurement.
//!
//! The point of micro-segmentation: "the blast radius of breaching a
//! resource reduces to only those that the resource must communicate with
//! during normal operation." This module quantifies that — the number of
//! internal resources an attacker controlling one address can reach,
//! unsegmented (everything) versus under a policy (direct peers, or the
//! transitive closure for multi-hop attackers).

use crate::microseg::{SegmentId, Segmentation};
use crate::policy::SegmentPolicy;
use serde::Serialize;
use std::collections::{BTreeSet, VecDeque};
use std::net::Ipv4Addr;

/// Blast radius of one breached address.
#[derive(Debug, Clone, Serialize)]
pub struct BlastRadius {
    /// The breached address.
    pub(crate) breached: Ipv4Addr,
    /// Internal resources reachable with no segmentation (all of them,
    /// minus the breached resource itself).
    pub unsegmented: usize,
    /// Internal resources directly reachable under the policy.
    pub direct: usize,
    /// Internal resources reachable via multi-hop pivoting (transitive
    /// closure of the segment policy graph).
    pub transitive: usize,
    /// `direct / unsegmented` — the headline reduction factor.
    pub direct_fraction: f64,
}

/// Compute the blast radius of `breached` under `(seg, policy)`.
///
/// Counts only internal resources (external peers are not enforcement
/// targets). Returns `None` when the address is not in the segmentation.
pub fn blast_radius(
    seg: &Segmentation,
    policy: &SegmentPolicy,
    breached: Ipv4Addr,
) -> Option<BlastRadius> {
    let home = seg.segment_of(breached)?;
    let total_internal = seg.internal_members();
    let unsegmented = total_internal.saturating_sub(1);

    let count_members = |ids: &BTreeSet<SegmentId>| -> usize {
        let mut n = 0usize;
        for &id in ids {
            let s = seg.segment(id);
            if !s.internal {
                continue;
            }
            n += s.members.len();
            if id == home {
                n -= 1; // don't count the breached resource itself
            }
        }
        n
    };

    // Direct: segments reachable in one hop (own segment counts only if a
    // self-rule exists — replicas of a role often do not talk to peers).
    let direct_segments: BTreeSet<SegmentId> = policy.reachable_from(home).into_iter().collect();
    let direct = count_members(&direct_segments);

    // Transitive: BFS over the segment-level reachability graph.
    let mut visited: BTreeSet<SegmentId> = BTreeSet::new();
    let mut queue: VecDeque<SegmentId> = VecDeque::new();
    queue.push_back(home);
    while let Some(s) = queue.pop_front() {
        for next in policy.reachable_from(s) {
            if visited.insert(next) {
                queue.push_back(next);
            }
        }
    }
    let transitive = count_members(&visited);

    Some(BlastRadius {
        breached,
        unsegmented,
        direct,
        transitive,
        direct_fraction: if unsegmented == 0 { 0.0 } else { direct as f64 / unsegmented as f64 },
    })
}

/// Fleet-wide blast summary: the mean direct fraction across every internal
/// resource — the number the paper's µsegmentation pitch is about.
#[derive(Debug, Clone, Serialize)]
pub struct FleetBlastReport {
    /// Number of internal resources assessed.
    pub resources: usize,
    /// Mean direct-reachable count.
    pub mean_direct: f64,
    /// Largest direct-reachable count (worst resource to lose).
    pub max_direct: usize,
    /// Mean `direct / unsegmented` fraction.
    pub mean_direct_fraction: f64,
    /// Mean transitive-reachable count.
    pub mean_transitive: f64,
}

/// Assess every internal member of the segmentation.
pub fn fleet_blast_report(seg: &Segmentation, policy: &SegmentPolicy) -> FleetBlastReport {
    let mut n = 0usize;
    let (mut sum_direct, mut sum_frac, mut sum_trans) = (0f64, 0f64, 0f64);
    let mut max_direct = 0usize;
    for s in seg.segments() {
        if !s.internal {
            continue;
        }
        for &ip in &s.members {
            if let Some(b) = blast_radius(seg, policy, ip) {
                n += 1;
                sum_direct += b.direct as f64;
                sum_frac += b.direct_fraction;
                sum_trans += b.transitive as f64;
                max_direct = max_direct.max(b.direct);
            }
        }
    }
    let d = n.max(1) as f64;
    FleetBlastReport {
        resources: n,
        mean_direct: sum_direct / d,
        max_direct,
        mean_direct_fraction: sum_frac / d,
        mean_transitive: sum_trans / d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ANY_PORT;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    /// web(3) → api(4) → db(2); metrics(1) isolated.
    fn setup() -> (Segmentation, SegmentPolicy) {
        let seg = Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1), ip(0, 2), ip(0, 3)], true),
            ("api".into(), vec![ip(1, 1), ip(1, 2), ip(1, 3), ip(1, 4)], true),
            ("db".into(), vec![ip(2, 1), ip(2, 2)], true),
            ("metrics".into(), vec![ip(3, 1)], true),
        ]);
        let mut p = SegmentPolicy::deny_all(false);
        p.allow(SegmentId(0), SegmentId(1), ANY_PORT);
        p.allow(SegmentId(1), SegmentId(2), ANY_PORT);
        (seg, p)
    }

    #[test]
    fn direct_radius_is_allowed_peers_only() {
        let (seg, p) = setup();
        let b = blast_radius(&seg, &p, ip(0, 1)).unwrap();
        assert_eq!(b.unsegmented, 9, "9 other internal resources");
        assert_eq!(b.direct, 4, "web reaches only the 4 api replicas");
        assert!((b.direct_fraction - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn transitive_radius_follows_pivots() {
        let (seg, p) = setup();
        let b = blast_radius(&seg, &p, ip(0, 1)).unwrap();
        // web → api → db and, via the BFS revisiting home, web peers too:
        // api can reach web, so transitive includes web's other replicas.
        assert_eq!(b.transitive, 2 + 4 + 2, "web peers + api + db");
        assert!(b.transitive >= b.direct);
    }

    #[test]
    fn isolated_segment_has_zero_radius() {
        let (seg, p) = setup();
        let b = blast_radius(&seg, &p, ip(3, 1)).unwrap();
        assert_eq!(b.direct, 0);
        assert_eq!(b.transitive, 0);
        assert_eq!(b.direct_fraction, 0.0);
    }

    #[test]
    fn unknown_ip_yields_none() {
        let (seg, p) = setup();
        assert!(blast_radius(&seg, &p, ip(9, 9)).is_none());
    }

    #[test]
    fn db_breach_reaches_api_only_directly() {
        let (seg, p) = setup();
        let b = blast_radius(&seg, &p, ip(2, 1)).unwrap();
        assert_eq!(b.direct, 4);
        // Transitive: api → web as well, plus the other db replica via
        // api? No db self-rule, but db is reachable from api, so BFS
        // includes segment db (the other replica).
        assert_eq!(b.transitive, 4 + 3 + 1);
    }

    #[test]
    fn fleet_report_aggregates() {
        let (seg, p) = setup();
        let r = fleet_blast_report(&seg, &p);
        assert_eq!(r.resources, 10);
        assert!(r.mean_direct_fraction < 0.6, "segmentation shrinks reach");
        assert_eq!(r.max_direct, 5, "api replicas reach web(3) + db(2)");
        assert!(r.mean_transitive >= r.mean_direct);
    }

    #[test]
    fn external_members_do_not_count() {
        let seg = Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1)], true),
            ("clients".into(), vec![ip(9, 1), ip(9, 2)], false),
        ]);
        let mut p = SegmentPolicy::deny_all(false);
        p.allow(SegmentId(0), SegmentId(1), ANY_PORT);
        let b = blast_radius(&seg, &p, ip(0, 1)).unwrap();
        assert_eq!(b.unsegmented, 0, "no other internal resources");
        assert_eq!(b.direct, 0, "external clients are not blast targets");
    }
}
