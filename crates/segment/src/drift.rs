//! Segmentation drift: keeping µsegment labels up to date.
//!
//! "When the role of a resource changes — for example, when pods in
//! kubernetes migrate or scale up or down or when a software change causes
//! VMs to behave differently — the µsegment labels must keep up-to-date."
//!
//! Re-running role inference on a fresh window yields a *new* segmentation;
//! this module reconciles it against the one currently enforced:
//! [`reconcile`] matches new segments to old ones by membership overlap,
//! classifies every resource as stable / moved / new / retired, and prices
//! the transition in enforcement updates (per-IP vs tag rules) — the
//! operational "churn and lag" the paper says tags should reduce.

use crate::microseg::{SegmentId, Segmentation};
use serde::Serialize;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How one new segment maps onto the old segmentation.
#[derive(Debug, Clone, Serialize)]
pub struct SegmentMatch {
    /// Segment in the new segmentation.
    pub(crate) new_segment: SegmentId,
    /// Best-overlapping old segment, if any member overlaps.
    pub(crate) old_segment: Option<SegmentId>,
    /// Members shared with that old segment.
    pub(crate) overlap: usize,
    /// Members of the new segment.
    pub(crate) size: usize,
    /// Jaccard overlap with the matched old segment (0 when unmatched).
    pub(crate) jaccard: f64,
}

/// The full reconciliation of an old → new segmentation transition.
#[derive(Debug, Clone, Serialize)]
pub struct DriftReport {
    /// Per-new-segment matches, ordered by new segment id.
    pub(crate) matches: Vec<SegmentMatch>,
    /// Resources whose (matched) segment did not change.
    pub(crate) stable: usize,
    /// Resources that moved between matched segments — the label churn.
    pub moved: Vec<Ipv4Addr>,
    /// Resources present only in the new segmentation (scale-out).
    pub added: Vec<Ipv4Addr>,
    /// Resources present only in the old segmentation (scale-in).
    pub retired: Vec<Ipv4Addr>,
    /// Fraction of common resources whose label persisted, in `[0, 1]`.
    pub stability: f64,
    /// Per-IP enforcement updates the transition requires (every mover's
    /// address must be rewritten in every peer VM's unrolled rules, plus its
    /// own rule list).
    pub ip_rule_updates: usize,
    /// Tag updates required (one re-tag per moved/added/retired resource).
    pub tag_updates: usize,
}

fn member_map(seg: &Segmentation) -> HashMap<Ipv4Addr, SegmentId> {
    let mut m = HashMap::new();
    for s in seg.segments() {
        for &ip in &s.members {
            m.insert(ip, s.id);
        }
    }
    m
}

/// Reconcile `new` against the currently-enforced `old` segmentation.
///
/// Matching is greedy by overlap: each new segment maps to the old segment
/// with the largest shared membership (unmatched when it shares nothing).
pub fn reconcile(old: &Segmentation, new: &Segmentation) -> DriftReport {
    let old_members = member_map(old);
    let new_members = member_map(new);

    // Overlap counts: new segment -> old segment -> shared members.
    let mut overlap: HashMap<SegmentId, HashMap<SegmentId, usize>> = HashMap::new();
    for (ip, new_seg) in &new_members {
        if let Some(old_seg) = old_members.get(ip) {
            *overlap.entry(*new_seg).or_default().entry(*old_seg).or_insert(0) += 1;
        }
    }
    let mut matches: Vec<SegmentMatch> = new
        .segments()
        .iter()
        .map(|s| {
            // Prefer the old segment with the larger overlap; on ties, the
            // *smaller* old segment (higher Jaccard), then the smaller id
            // for determinism.
            let best = overlap.get(&s.id).and_then(|m| {
                m.iter().max_by_key(|(old_id, &n)| {
                    (
                        n,
                        std::cmp::Reverse(old.segment(**old_id).members.len()),
                        std::cmp::Reverse(**old_id),
                    )
                })
            });
            match best {
                Some((&old_id, &n)) => {
                    let old_size = old.segment(old_id).members.len();
                    let union = s.members.len() + old_size - n;
                    SegmentMatch {
                        new_segment: s.id,
                        old_segment: Some(old_id),
                        overlap: n,
                        size: s.members.len(),
                        jaccard: n as f64 / union.max(1) as f64,
                    }
                }
                None => SegmentMatch {
                    new_segment: s.id,
                    old_segment: None,
                    overlap: 0,
                    size: s.members.len(),
                    jaccard: 0.0,
                },
            }
        })
        .collect();
    matches.sort_by_key(|m| m.new_segment);
    let mapping: HashMap<SegmentId, Option<SegmentId>> =
        matches.iter().map(|m| (m.new_segment, m.old_segment)).collect();

    // Classify resources.
    let (mut stable, mut moved, mut added) = (0usize, Vec::new(), Vec::new());
    for (ip, new_seg) in &new_members {
        match old_members.get(ip) {
            None => added.push(*ip),
            Some(old_seg) => {
                if mapping.get(new_seg).copied().flatten() == Some(*old_seg) {
                    stable += 1;
                } else {
                    moved.push(*ip);
                }
            }
        }
    }
    let retired: Vec<Ipv4Addr> =
        old_members.keys().filter(|ip| !new_members.contains_key(*ip)).copied().collect();
    let common = stable + moved.len();
    let stability = if common == 0 { 1.0 } else { stable as f64 / common as f64 };

    // Enforcement cost. Per-IP: a moved/added/retired resource's address
    // must be added/removed in the unrolled rules of every *other* internal
    // VM that holds rules naming it — bounded above by the internal fleet —
    // plus its own list. Tags: one membership update per affected resource.
    let fleet = new.internal_members().max(old.internal_members());
    let affected = moved.len() + added.len() + retired.len();
    let ip_rule_updates = affected * fleet.saturating_sub(1) + affected;
    let tag_updates = affected;

    let (mut moved, mut added, mut retired) = (moved, added, retired);
    moved.sort();
    added.sort();
    retired.sort();
    DriftReport { matches, stable, moved, added, retired, stability, ip_rule_updates, tag_updates }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    fn seg(groups: &[(&str, &[Ipv4Addr])]) -> Segmentation {
        Segmentation::from_members(
            groups.iter().map(|(n, m)| (n.to_string(), m.to_vec(), true)).collect(),
        )
    }

    #[test]
    fn identical_segmentations_are_fully_stable() {
        let a = seg(&[("web", &[ip(0, 1), ip(0, 2)]), ("db", &[ip(1, 1)])]);
        let b = seg(&[("web", &[ip(0, 1), ip(0, 2)]), ("db", &[ip(1, 1)])]);
        let r = reconcile(&a, &b);
        assert_eq!(r.stable, 3);
        assert!(r.moved.is_empty() && r.added.is_empty() && r.retired.is_empty());
        assert_eq!(r.stability, 1.0);
        assert_eq!(r.ip_rule_updates, 0);
        assert_eq!(r.tag_updates, 0);
        assert!(r.matches.iter().all(|m| m.jaccard == 1.0));
    }

    #[test]
    fn relabeled_segments_still_match_by_overlap() {
        // Same partition, different segment ids/order.
        let a = seg(&[("x", &[ip(0, 1), ip(0, 2)]), ("y", &[ip(1, 1), ip(1, 2)])]);
        let b = seg(&[("p", &[ip(1, 1), ip(1, 2)]), ("q", &[ip(0, 1), ip(0, 2)])]);
        let r = reconcile(&a, &b);
        assert_eq!(r.stable, 4, "identity of labels is irrelevant");
        assert_eq!(r.stability, 1.0);
    }

    #[test]
    fn movers_are_detected_and_priced() {
        let a = seg(&[("web", &[ip(0, 1), ip(0, 2), ip(0, 3)]), ("db", &[ip(1, 1)])]);
        // 10.0.0.3 drifts into the db segment.
        let b = seg(&[("web", &[ip(0, 1), ip(0, 2)]), ("db", &[ip(0, 3), ip(1, 1)])]);
        let r = reconcile(&a, &b);
        assert_eq!(r.moved, vec![ip(0, 3)]);
        assert_eq!(r.stable, 3);
        assert!((r.stability - 0.75).abs() < 1e-12);
        assert_eq!(r.tag_updates, 1, "one re-tag");
        assert_eq!(r.ip_rule_updates, 3 + 1, "every other VM + its own list");
    }

    #[test]
    fn scale_out_and_in_are_classified() {
        let a = seg(&[("web", &[ip(0, 1), ip(0, 2)])]);
        let b = seg(&[("web", &[ip(0, 1), ip(0, 9)])]);
        let r = reconcile(&a, &b);
        assert_eq!(r.added, vec![ip(0, 9)]);
        assert_eq!(r.retired, vec![ip(0, 2)]);
        assert_eq!(r.stable, 1);
        assert_eq!(r.tag_updates, 2);
    }

    #[test]
    fn split_segment_keeps_the_larger_half_stable() {
        let a = seg(&[("all", &[ip(0, 1), ip(0, 2), ip(0, 3), ip(0, 4)])]);
        let b = seg(&[("big", &[ip(0, 1), ip(0, 2), ip(0, 3)]), ("small", &[ip(0, 4)])]);
        let r = reconcile(&a, &b);
        // Both new segments match old "all"; members of both count stable
        // only through their own segment's mapping — all map to old seg 0,
        // so everyone is "stable" under overlap matching (the split itself
        // shows up as two matches onto one old segment).
        let matched: Vec<_> = r.matches.iter().filter(|m| m.old_segment.is_some()).collect();
        assert_eq!(matched.len(), 2);
        assert!(r.matches.iter().any(|m| m.jaccard < 1.0), "split lowers overlap quality");
    }

    #[test]
    fn empty_segmentations() {
        let empty = seg(&[]);
        let full = seg(&[("web", &[ip(0, 1)])]);
        let r = reconcile(&empty, &full);
        assert_eq!(r.added.len(), 1);
        assert_eq!(r.stability, 1.0, "no common resources ⇒ vacuously stable");
        let r2 = reconcile(&full, &empty);
        assert_eq!(r2.retired.len(), 1);
    }
}
