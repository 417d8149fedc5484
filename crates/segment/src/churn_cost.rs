//! Rule-update cost under churn: why the paper wants tags.
//!
//! "Tags may also help reduce churn and lag when µsegment labels change."
//! When a replica joins or leaves a µsegment, per-IP unrolled rules must be
//! rewritten on **every VM in every segment allowed to talk to it** — the
//! whole fleet feels one pod reschedule. Tag-based enforcement localizes
//! the change: the new VM gets its own rule set and a tag registration;
//! nobody else's rules change.
//!
//! `churn_update_cost` computes both costs for a hypothetical ±1-replica
//! event on each segment; [`ChurnCostReport`] aggregates fleet-wide.

use crate::microseg::{SegmentId, Segmentation};
use crate::policy::SegmentPolicy;
use serde::Serialize;

/// Update cost of one ±1-replica event on a segment.
#[derive(Debug, Clone, Serialize)]
pub struct SegmentChurnCost {
    /// The segment whose membership changes.
    pub(crate) segment: SegmentId,
    /// Display name of the segment.
    pub(crate) name: String,
    /// Current members.
    pub(crate) members: usize,
    /// VMs whose per-IP rule lists must be rewritten.
    pub(crate) ip_vms_touched: usize,
    /// Individual per-IP rules added/removed fleet-wide.
    pub(crate) ip_rule_updates: usize,
    /// VMs whose tag rules must be rewritten (only the churned VM itself).
    pub(crate) tag_vms_touched: usize,
    /// Tag-table registrations (the churned VM's tag membership).
    pub(crate) tag_updates: usize,
}

/// Fleet-wide churn-cost aggregate.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnCostReport {
    /// Per-segment costs.
    pub(crate) per_segment: Vec<SegmentChurnCost>,
    /// Mean per-IP rule updates per churn event.
    pub mean_ip_rule_updates: f64,
    /// Worst-case per-IP rule updates for one event.
    pub max_ip_rule_updates: usize,
    /// Mean tag updates per churn event (always small).
    pub mean_tag_updates: f64,
    /// Ratio mean_ip / mean_tag — the amplification tags remove.
    pub amplification: f64,
}

/// Cost of one ±1-replica churn event on `segment`.
pub(crate) fn churn_update_cost(
    seg: &Segmentation,
    policy: &SegmentPolicy,
    segment: SegmentId,
) -> SegmentChurnCost {
    let s = seg.segment(segment);
    // Which (peer segment, port-scope) pairs involve this segment?
    let mut peer_scopes: Vec<(SegmentId, u16)> = Vec::new();
    for rule in policy.rules() {
        if rule.a == segment {
            peer_scopes.push((rule.b, rule.port));
        }
        if rule.b == segment && rule.a != rule.b {
            peer_scopes.push((rule.a, rule.port));
        }
    }
    // Per-IP enforcement: every *internal* VM in every peer segment holds
    // one rule per member of `segment` (per scope) — each must be updated.
    // Members of `segment` itself also hold rules if a self-rule exists.
    let mut ip_vms = 0usize;
    let mut ip_updates = 0usize;
    for &(peer, _scope) in &peer_scopes {
        let p = seg.segment(peer);
        if !p.internal {
            continue;
        }
        let members =
            if peer == segment { p.members.len().saturating_sub(1) } else { p.members.len() };
        ip_vms += members;
        ip_updates += members; // one rule add/remove per enforcing VM
    }
    // The churned VM itself must also be programmed with its full rule set;
    // count it once for both schemes.
    let own_rules: usize = peer_scopes.len();
    SegmentChurnCost {
        segment,
        name: s.name.clone(),
        members: s.members.len(),
        ip_vms_touched: ip_vms + 1,
        ip_rule_updates: ip_updates + own_rules.max(1),
        tag_vms_touched: 1,
        tag_updates: 1 + own_rules.max(1).min(own_rules + 1),
    }
}

/// Assess a ±1 churn event on every internal segment.
pub fn churn_cost_report(seg: &Segmentation, policy: &SegmentPolicy) -> ChurnCostReport {
    let mut per_segment = Vec::new();
    for s in seg.segments() {
        if !s.internal {
            continue;
        }
        per_segment.push(churn_update_cost(seg, policy, s.id));
    }
    let n = per_segment.len().max(1) as f64;
    let mean_ip = per_segment.iter().map(|c| c.ip_rule_updates as f64).sum::<f64>() / n;
    let max_ip = per_segment.iter().map(|c| c.ip_rule_updates).max().unwrap_or(0);
    let mean_tag = per_segment.iter().map(|c| c.tag_updates as f64).sum::<f64>() / n;
    ChurnCostReport {
        per_segment,
        mean_ip_rule_updates: mean_ip,
        max_ip_rule_updates: max_ip,
        mean_tag_updates: mean_tag,
        amplification: if mean_tag > 0.0 { mean_ip / mean_tag } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ANY_PORT;
    use std::net::Ipv4Addr;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    fn many(a: u8, n: u8) -> Vec<Ipv4Addr> {
        (1..=n).map(|b| ip(a, b)).collect()
    }

    /// web(5) ↔ api(100), api ↔ db(10).
    fn setup() -> (Segmentation, SegmentPolicy) {
        let seg = Segmentation::from_members(vec![
            ("web".into(), many(0, 5), true),
            ("api".into(), many(1, 100), true),
            ("db".into(), many(2, 10), true),
        ]);
        let mut p = SegmentPolicy::deny_all(false);
        p.allow(SegmentId(0), SegmentId(1), ANY_PORT);
        p.allow(SegmentId(1), SegmentId(2), ANY_PORT);
        (seg, p)
    }

    #[test]
    fn churn_on_popular_segment_touches_all_its_peers() {
        let (seg, p) = setup();
        // api churn: every web VM (5) and every db VM (10) re-programs.
        let c = churn_update_cost(&seg, &p, SegmentId(1));
        assert_eq!(c.ip_vms_touched, 5 + 10 + 1);
        assert!(c.ip_rule_updates >= 15);
        assert_eq!(c.tag_vms_touched, 1, "tags: only the churned VM");
    }

    #[test]
    fn churn_on_leaf_segment_is_cheaper_but_still_amplified() {
        let (seg, p) = setup();
        // web churn: all 100 api VMs re-program.
        let c = churn_update_cost(&seg, &p, SegmentId(0));
        assert_eq!(c.ip_vms_touched, 101);
        assert!(c.ip_rule_updates > 50 * c.tag_updates, "two-orders-of-magnitude gap");
    }

    #[test]
    fn report_aggregates_and_amplification_is_large() {
        let (seg, p) = setup();
        let r = churn_cost_report(&seg, &p);
        assert_eq!(r.per_segment.len(), 3);
        assert!(r.max_ip_rule_updates >= 100);
        assert!(
            r.amplification > 10.0,
            "tags must remove an order of magnitude of churn: {}",
            r.amplification
        );
    }

    #[test]
    fn isolated_segment_costs_almost_nothing() {
        let seg = Segmentation::from_members(vec![
            ("iso".into(), many(0, 4), true),
            ("other".into(), many(1, 4), true),
        ]);
        let p = SegmentPolicy::deny_all(false);
        let c = churn_update_cost(&seg, &p, SegmentId(0));
        assert_eq!(c.ip_vms_touched, 1, "just the churned VM itself");
        assert_eq!(c.ip_rule_updates, 1);
    }

    #[test]
    fn self_rule_counts_own_segment_peers() {
        let seg = Segmentation::from_members(vec![("mesh".into(), many(0, 8), true)]);
        let mut p = SegmentPolicy::deny_all(false);
        p.allow(SegmentId(0), SegmentId(0), ANY_PORT);
        let c = churn_update_cost(&seg, &p, SegmentId(0));
        assert_eq!(c.ip_vms_touched, 7 + 1, "other mesh members update");
    }
}
