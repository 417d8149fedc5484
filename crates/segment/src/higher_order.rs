//! Higher-order policies: similarity- and proportionality-based (§2.1).
//!
//! Plain reachability policies flag every new communication edge, which
//! makes software rollouts noisy: "suppose a code change causes VMs in a
//! µsegment to begin speaking with a new service… noticing that all of the
//! VMs in the µsegment continue to exhibit similar behavior … may avoid the
//! false positive." Likewise, proportional growth across tiers is a flash
//! crowd, not a breach.
//!
//! * [`similarity_assess`] — for each new (segment, peer-segment, port)
//!   behavior between two windows, count how many segment members exhibit
//!   it: fleet-wide ⇒ explainable change, lone member ⇒ suspicious.
//! * [`proportionality_assess`] — compare per-segment-pair traffic growth
//!   against the cluster-wide trend: pairs that grow with the tide are
//!   explainable, pairs that surge alone are not.

use crate::microseg::{SegmentId, Segmentation};
use crate::policy::service_port;
use commgraph_graph::hash::FixedState;
use flowlog::record::ConnSummary;
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// A (segment, peer segment, service port) behavior key.
pub(crate) type BehaviorKey = (SegmentId, SegmentId, u16);

/// Assessment of one newly-appeared behavior.
#[derive(Debug, Clone, Serialize)]
pub struct SimilarityFinding {
    /// The segment whose members changed behavior.
    pub(crate) segment: SegmentId,
    /// The new peer segment.
    pub(crate) peer: SegmentId,
    /// Service port of the new conversations.
    pub(crate) port: u16,
    /// Members of `segment` exhibiting the new behavior.
    pub(crate) members_exhibiting: usize,
    /// Total members of `segment`.
    pub(crate) members_total: usize,
    /// True when enough of the fleet moved together that the change is
    /// explainable (e.g. a rollout) rather than a single breached VM.
    pub explainable: bool,
}

/// Collect, per (segment, peer, port), the distinct members talking.
fn behaviors<'a>(
    records: impl IntoIterator<Item = &'a ConnSummary>,
    seg: &Segmentation,
) -> HashMap<BehaviorKey, HashSet<std::net::Ipv4Addr, FixedState>, FixedState> {
    let mut out: HashMap<_, HashSet<_, _>, _> = HashMap::default();
    for r in records {
        let (Some(a), Some(b)) = (seg.segment_of(r.key.local_ip), seg.segment_of(r.key.remote_ip))
        else {
            continue;
        };
        let port = service_port(&r.key);
        out.entry((a, b, port)).or_default().insert(r.key.local_ip);
        // The peer's members also "exhibit" the behavior from their side.
        out.entry((b, a, port)).or_default().insert(r.key.remote_ip);
    }
    out
}

/// Compare two windows and assess every *new* behavior in the later one.
///
/// `fleet_threshold` is the fraction of segment members that must exhibit a
/// new behavior for it to count as explainable (the paper's "all of the VMs
/// continue to exhibit similar behavior"; 0.8 is a practical default —
/// rollouts are rarely perfectly atomic across a window boundary).
pub fn similarity_assess<'a>(
    baseline: impl IntoIterator<Item = &'a ConnSummary>,
    current: impl IntoIterator<Item = &'a ConnSummary>,
    seg: &Segmentation,
    fleet_threshold: f64,
) -> Vec<SimilarityFinding> {
    assert!((0.0..=1.0).contains(&fleet_threshold), "threshold must be in [0, 1]");
    let before = behaviors(baseline, seg);
    let after = behaviors(current, seg);
    // A side vouches for the change when a fleet of at least two members
    // moved together — a singleton segment can't distinguish "rollout"
    // from "that one VM is compromised".
    let side_vouches = |key: &BehaviorKey| -> bool {
        let Some(members) = after.get(key) else { return false };
        let total = seg.segment(key.0).members.len();
        total >= 2 && members.len() as f64 / total as f64 >= fleet_threshold
    };
    let mut findings = Vec::new();
    for (key, members) in &after {
        if before.contains_key(key) {
            continue; // not new
        }
        let (s, peer, port) = *key;
        let total = seg.segment(s).members.len();
        if total == 0 {
            continue;
        }
        // Explainable if this side OR the mirrored side shows fleet-wide
        // adoption: when every web replica starts calling the registry,
        // the change is a rollout no matter how few registry replicas
        // happened to receive the connections.
        let explainable = side_vouches(key) || side_vouches(&(peer, s, port));
        findings.push(SimilarityFinding {
            segment: s,
            peer,
            port,
            members_exhibiting: members.len(),
            members_total: total,
            explainable,
        });
    }
    findings.sort_by_key(|f| (f.segment, f.peer, f.port));
    findings
}

/// Assessment of one segment pair's traffic change between windows.
#[derive(Debug, Clone, Serialize)]
pub struct ProportionalityFinding {
    /// Lower segment of the pair.
    pub(crate) a: SegmentId,
    /// Higher segment of the pair.
    pub(crate) b: SegmentId,
    /// Bytes in the baseline window.
    pub(crate) bytes_before: u64,
    /// Bytes in the current window.
    pub(crate) bytes_after: u64,
    /// This pair's growth ratio.
    pub(crate) ratio: f64,
    /// The cluster-wide median growth ratio.
    pub(crate) cluster_ratio: f64,
    /// True when growth is in line with the cluster trend (flash crowd),
    /// false when this pair surged alone.
    pub proportional: bool,
}

/// Compare per-segment-pair byte volumes across two windows.
///
/// A pair is flagged non-proportional when its growth ratio exceeds the
/// cluster's median ratio by more than `tolerance_factor` (and it at least
/// doubled in absolute terms — tiny pairs produce noisy ratios).
pub fn proportionality_assess<'a>(
    baseline: impl IntoIterator<Item = &'a ConnSummary>,
    current: impl IntoIterator<Item = &'a ConnSummary>,
    seg: &Segmentation,
    tolerance_factor: f64,
) -> Vec<ProportionalityFinding> {
    assert!(tolerance_factor >= 1.0, "tolerance factor must be >= 1");
    let volume = |records: &mut dyn Iterator<Item = &'a ConnSummary>| {
        let mut v: HashMap<(SegmentId, SegmentId), u64> = HashMap::new();
        for r in records {
            let (Some(a), Some(b)) =
                (seg.segment_of(r.key.local_ip), seg.segment_of(r.key.remote_ip))
            else {
                continue;
            };
            let key = if a <= b { (a, b) } else { (b, a) };
            *v.entry(key).or_default() += r.bytes_total();
        }
        v
    };
    let before = volume(&mut baseline.into_iter());
    let after = volume(&mut current.into_iter());

    // Growth ratio per pair present in either window (missing ⇒ 0 bytes).
    let keys: HashSet<(SegmentId, SegmentId)> =
        before.keys().chain(after.keys()).copied().collect();
    let mut ratios: Vec<f64> = Vec::new();
    let mut raw: Vec<((SegmentId, SegmentId), u64, u64, f64)> = Vec::new();
    for key in keys {
        let vb = before.get(&key).copied().unwrap_or(0);
        let va = after.get(&key).copied().unwrap_or(0);
        let ratio = if vb == 0 {
            if va == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            va as f64 / vb as f64
        };
        ratios.push(ratio.min(1e9)); // keep the median finite
        raw.push((key, vb, va, ratio));
    }
    if raw.is_empty() {
        return Vec::new();
    }
    ratios.sort_by(f64::total_cmp);
    // Lower median: a conservative trend estimate, so that with few pairs a
    // single surging pair cannot drag the "cluster trend" up to meet itself.
    let cluster_ratio = ratios[(ratios.len() - 1) / 2];

    let mut out: Vec<ProportionalityFinding> = raw
        .into_iter()
        .map(|((a, b), vb, va, ratio)| {
            let grew_materially = va > vb.saturating_mul(2);
            let proportional = !grew_materially || ratio <= cluster_ratio * tolerance_factor;
            ProportionalityFinding {
                a,
                b,
                bytes_before: vb,
                bytes_after: va,
                ratio,
                cluster_ratio,
                proportional,
            }
        })
        .collect();
    out.sort_by_key(|f| (f.a, f.b));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlog::record::FlowKey;
    use std::net::Ipv4Addr;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    fn seg() -> Segmentation {
        Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1), ip(0, 2), ip(0, 3), ip(0, 4)], true),
            ("db".into(), vec![ip(1, 1)], true),
            ("metrics".into(), vec![ip(2, 1)], true),
        ])
    }

    fn rec(l: Ipv4Addr, r: Ipv4Addr, rp: u16, bytes: u64) -> ConnSummary {
        ConnSummary {
            ts: 0,
            key: FlowKey::tcp(l, 40_000, r, rp),
            pkts_sent: bytes / 1000 + 1,
            pkts_rcvd: 1,
            bytes_sent: bytes,
            bytes_rcvd: 100,
        }
    }

    #[test]
    fn fleet_wide_change_is_explainable() {
        let s = seg();
        let baseline = vec![rec(ip(0, 1), ip(1, 1), 5432, 1000)];
        // All four web VMs start talking to metrics — a rollout.
        let current: Vec<ConnSummary> =
            (1..=4).map(|i| rec(ip(0, i), ip(2, 1), 9090, 500)).collect();
        let findings = similarity_assess(&baseline, &current, &s, 0.8);
        let f = findings
            .iter()
            .find(|f| f.segment == SegmentId(0) && f.peer == SegmentId(2))
            .expect("new behavior detected");
        assert_eq!(f.members_exhibiting, 4);
        assert!(f.explainable, "all members moved together");
    }

    #[test]
    fn lone_member_change_is_suspicious() {
        let s = seg();
        let baseline = vec![rec(ip(0, 1), ip(1, 1), 5432, 1000)];
        let current = vec![rec(ip(0, 2), ip(2, 1), 22, 5000)]; // one VM, SSH
        let findings = similarity_assess(&baseline, &current, &s, 0.8);
        let f = findings
            .iter()
            .find(|f| f.segment == SegmentId(0) && f.peer == SegmentId(2))
            .expect("new behavior detected");
        assert_eq!(f.members_exhibiting, 1);
        assert!(!f.explainable, "1 of 4 members is not a rollout");
    }

    #[test]
    fn rollout_vouches_for_the_receiving_side_too() {
        // All four web VMs call one member of a *mixed* two-member segment;
        // the receiving side alone (1 of 2 members) would fail the fleet
        // threshold, but the initiating fleet vouches for the change.
        let s = Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1), ip(0, 2), ip(0, 3), ip(0, 4)], true),
            ("stores".into(), vec![ip(1, 1), ip(1, 2)], true),
        ]);
        let baseline = vec![rec(ip(0, 1), ip(1, 2), 5432, 1000)];
        let current: Vec<ConnSummary> =
            (1..=4).map(|i| rec(ip(0, i), ip(1, 1), 5000, 500)).collect();
        let findings = similarity_assess(&baseline, &current, &s, 0.8);
        assert!(!findings.is_empty());
        assert!(
            findings.iter().all(|f| f.explainable),
            "both directions of a fleet rollout are explainable: {findings:?}"
        );
    }

    #[test]
    fn singleton_segments_cannot_vouch() {
        // One VM of a 4-member web segment talks to a singleton segment.
        // The singleton trivially has 100% participation but must not make
        // the lone web VM's change explainable.
        let s = seg();
        let baseline = vec![rec(ip(0, 1), ip(1, 1), 5432, 1000)];
        let current = vec![rec(ip(0, 2), ip(2, 1), 9090, 700)];
        let findings = similarity_assess(&baseline, &current, &s, 0.8);
        assert!(
            findings.iter().all(|f| !f.explainable),
            "a singleton peer cannot whitewash a lone change: {findings:?}"
        );
    }

    #[test]
    fn existing_behaviors_are_not_findings() {
        let s = seg();
        let baseline = vec![rec(ip(0, 1), ip(1, 1), 5432, 1000)];
        let current = vec![rec(ip(0, 2), ip(1, 1), 5432, 9000)];
        let findings = similarity_assess(&baseline, &current, &s, 0.8);
        assert!(findings.is_empty(), "same behavior key existed in baseline");
    }

    #[test]
    fn flash_crowd_is_proportional() {
        let s = seg();
        // Everything triples: load surge.
        let baseline =
            vec![rec(ip(0, 1), ip(1, 1), 5432, 1000), rec(ip(0, 1), ip(2, 1), 9090, 2000)];
        let current =
            vec![rec(ip(0, 1), ip(1, 1), 5432, 3000), rec(ip(0, 1), ip(2, 1), 9090, 6000)];
        let findings = proportionality_assess(&baseline, &current, &s, 2.0);
        assert!(findings.iter().all(|f| f.proportional), "{findings:?}");
    }

    #[test]
    fn lone_surge_is_flagged() {
        let s = seg();
        let baseline =
            vec![rec(ip(0, 1), ip(1, 1), 5432, 1000), rec(ip(0, 1), ip(2, 1), 9090, 1000)];
        // db edge stays flat, metrics edge explodes 50x (e.g. exfil via
        // the metrics path).
        let current =
            vec![rec(ip(0, 1), ip(1, 1), 5432, 1100), rec(ip(0, 1), ip(2, 1), 9090, 50_000)];
        let findings = proportionality_assess(&baseline, &current, &s, 2.0);
        let surge = findings.iter().find(|f| f.bytes_after > 10_000).expect("surging pair present");
        assert!(!surge.proportional, "lone surge must be flagged: {surge:?}");
        let flat = findings.iter().find(|f| f.bytes_after < 10_000).unwrap();
        assert!(flat.proportional);
    }

    #[test]
    fn small_absolute_changes_tolerated() {
        let s = seg();
        let baseline = vec![rec(ip(0, 1), ip(1, 1), 5432, 10)];
        let current = vec![rec(ip(0, 1), ip(1, 1), 5432, 15)];
        let findings = proportionality_assess(&baseline, &current, &s, 2.0);
        assert!(findings[0].proportional, "sub-2x growth is never flagged");
    }

    #[test]
    fn empty_windows_are_quiet() {
        let s = seg();
        assert!(similarity_assess(&[], &[], &s, 0.8).is_empty());
        assert!(proportionality_assess(&[], &[], &s, 2.0).is_empty());
    }
}
