//! Default-deny reachability policies between µsegments.
//!
//! "A pair of resources can communicate with each other only if explicitly
//! allowed by the policies; i.e., the default will be to deny." Policies are
//! *learned* from a window of observed communication: every segment pair
//! (optionally qualified by service port) that talked during normal
//! operation becomes an allow rule; everything else is denied.
//!
//! A rule is `(segment(local), segment(remote), service port)`, so the rules
//! a window implies are a function of its graph's edges and the service
//! ports each edge carried ([`commgraph_graph::CommGraph::ports`]).
//! [`SegmentPolicy::learn_graph`] and [`SegmentPolicy::learn_incremental_graph`]
//! resolve a segment once per node and walk edge × port, so their cost
//! follows the graph, not the record rate. Over a window's graph they learn
//! what [`SegmentPolicy::learn`] learns over the records that graph kept;
//! the record-shaped learners remain as their reference. Checks do read
//! records ([`crate::ViolationDetector`]) and probe the rule set per record,
//! so it sits on the record path's hasher ([`commgraph_graph::hash`]), one
//! word per rule.

use crate::microseg::{Segment, SegmentId, Segmentation};
use commgraph_graph::hash::FixedState;
use commgraph_graph::CommGraph;
use flowlog::record::ConnSummary;
pub use flowlog::record::{service_port, ANY_PORT, EPHEMERAL_START};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// One allow rule: the (unordered) segment pair, and the service port it is
/// scoped to ([`ANY_PORT`] = all ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct AllowRule {
    /// Lower segment id of the pair.
    pub a: SegmentId,
    /// Higher segment id of the pair.
    pub b: SegmentId,
    /// Service port, or [`ANY_PORT`].
    pub port: u16,
}

/// One word to the hasher, not three writes; equal rules, equal words (as `Eq`).
impl Hash for AllowRule {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64((self.a.0 as u64) << 32 | (self.b.0 as u64) << 16 | self.port as u64);
    }
}

impl AllowRule {
    /// Canonicalized rule (segment ids ordered).
    pub(crate) fn new(x: SegmentId, y: SegmentId, port: u16) -> Self {
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        AllowRule { a, b, port }
    }
}

/// A default-deny reachability policy between µsegments.
///
/// ```
/// use segment::{SegmentPolicy, Segmentation, SegmentId};
/// use flowlog::record::{ConnSummary, FlowKey};
///
/// let seg = Segmentation::from_members(vec![
///     ("web".into(), vec!["10.0.0.1".parse().unwrap()], true),
///     ("db".into(),  vec!["10.0.1.1".parse().unwrap()], true),
/// ]);
/// let observed = vec![ConnSummary {
///     ts: 0,
///     key: FlowKey::tcp("10.0.0.1".parse().unwrap(), 40000,
///                       "10.0.1.1".parse().unwrap(), 5432),
///     pkts_sent: 1, pkts_rcvd: 1, bytes_sent: 100, bytes_rcvd: 100,
/// }];
/// let policy = SegmentPolicy::learn(&observed, &seg, true);
/// assert!(policy.allows(SegmentId(0), SegmentId(1), 5432));
/// assert!(!policy.allows(SegmentId(0), SegmentId(1), 22));
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct SegmentPolicy {
    // bound: (segment, segment, port) triples: at most segments² × 65 536.
    rules: HashSet<AllowRule, FixedState>,
    /// Whether rules are scoped to service ports (stricter) or whole
    /// segment pairs.
    port_scoped: bool,
}

impl SegmentPolicy {
    /// An empty (deny-everything) policy.
    pub fn deny_all(port_scoped: bool) -> Self {
        SegmentPolicy { rules: HashSet::default(), port_scoped }
    }

    /// Learn a policy from observed records: every segment pair (and service
    /// port, when `port_scoped`) seen communicating becomes an allow rule.
    /// Records touching IPs outside the segmentation are skipped — an
    /// unknown peer can never be pre-authorized.
    pub fn learn<'a>(
        records: impl IntoIterator<Item = &'a ConnSummary>,
        seg: &Segmentation,
        port_scoped: bool,
    ) -> Self {
        let mut rules = HashSet::default();
        for r in records {
            let (Some(sa), Some(sb)) =
                (seg.segment_of(r.key.local_ip), seg.segment_of(r.key.remote_ip))
            else {
                continue;
            };
            let port = if port_scoped { service_port(&r.key) } else { ANY_PORT };
            rules.insert(AllowRule::new(sa, sb, port));
        }
        SegmentPolicy { rules, port_scoped }
    }

    /// Learn a policy incrementally, re-synthesizing rules only for segment
    /// pairs whose membership (or traffic) changed since the previous
    /// window.
    ///
    /// A current segment is *carried over* when the previous segmentation
    /// has a segment of the same name with an identical member list and
    /// none of its members appear in `dirty` — the window-roll dirty set
    /// from `commgraph_graph::diff`, which flags every added, removed, or
    /// traffic-changed endpoint. Rules between two carried-over segments
    /// are copied from `prev` verbatim; records between them are skipped.
    /// Everything else is re-learned from `records` exactly as
    /// [`SegmentPolicy::learn`] would.
    ///
    /// Because any new, removed, or modified conversation dirties both of
    /// its endpoints, a carried-over pair saw the same flows as last
    /// window, and the result equals a full [`SegmentPolicy::learn`] over
    /// `records` rule-for-rule (the pipeline's rebuild oracle asserts this
    /// for the graph form). A `prev` learned under a different
    /// `port_scoped` setting cannot be reused and triggers a full relearn.
    pub fn learn_incremental<'a>(
        records: impl IntoIterator<Item = &'a ConnSummary>,
        seg: &Segmentation,
        prev_seg: &Segmentation,
        prev: &SegmentPolicy,
        dirty: &HashSet<Ipv4Addr>,
        port_scoped: bool,
    ) -> Self {
        if prev.port_scoped != port_scoped {
            return SegmentPolicy::learn(records, seg, port_scoped);
        }
        let (carried, mut rules) = prev.carry_over(seg, prev_seg, dirty);
        for r in records {
            let (Some(sa), Some(sb)) =
                (seg.segment_of(r.key.local_ip), seg.segment_of(r.key.remote_ip))
            else {
                continue;
            };
            if carried[sa.0 as usize] && carried[sb.0 as usize] {
                continue;
            }
            let port = if port_scoped { service_port(&r.key) } else { ANY_PORT };
            rules.insert(AllowRule::new(sa, sb, port));
        }
        SegmentPolicy { rules, port_scoped }
    }

    /// Learn a policy from a window's graph: every edge between two
    /// segmented nodes becomes one allow rule per service port it carried
    /// ([`CommGraph::ports`]), or one port-free rule when not `port_scoped`.
    /// A segment is resolved once per node; a node without an address
    /// (`Other`, a service) or outside the segmentation is never a policy
    /// subject, and a port-scoped edge assembled without ports allows nothing.
    ///
    /// Over a window's graph this is [`SegmentPolicy::learn`] over the
    /// records the graph kept. Against `learn` over every record of the
    /// window it can lack exactly the rules of records no graph counted:
    /// stragglers the window roll dropped as behind, and vantage-deduped
    /// copies whose canonical twin never arrived. Both fail closed — a
    /// missing rule flags a later flow, it never admits one.
    pub fn learn_graph(g: &CommGraph, seg: &Segmentation, port_scoped: bool) -> Self {
        let mut rules = HashSet::default();
        learn_edges(g, seg, port_scoped, |_, _| false, &mut rules);
        SegmentPolicy { rules, port_scoped }
    }

    /// [`SegmentPolicy::learn_incremental`] over a window's graph: the same
    /// carry-over rule, with the edges between two carried-over segments
    /// skipped and every other edge learned as [`SegmentPolicy::learn_graph`]
    /// would. Equals a full `learn_graph` over `g` rule-for-rule.
    pub fn learn_incremental_graph(
        g: &CommGraph,
        seg: &Segmentation,
        prev_seg: &Segmentation,
        prev: &SegmentPolicy,
        dirty: &HashSet<Ipv4Addr>,
        port_scoped: bool,
    ) -> Self {
        if prev.port_scoped != port_scoped {
            return SegmentPolicy::learn_graph(g, seg, port_scoped);
        }
        let (carried, mut rules) = prev.carry_over(seg, prev_seg, dirty);
        let both_carried =
            |a: SegmentId, b: SegmentId| carried[a.0 as usize] && carried[b.0 as usize];
        learn_edges(g, seg, port_scoped, both_carried, &mut rules);
        SegmentPolicy { rules, port_scoped }
    }

    /// The carry-over rule of both incremental learners: which of `seg`'s
    /// segments carry over from `prev_seg` (same name, same members, none
    /// dirty), and this policy's rules between two of them, renumbered.
    fn carry_over(
        &self,
        seg: &Segmentation,
        prev_seg: &Segmentation,
        dirty: &HashSet<Ipv4Addr>,
    ) -> (Vec<bool>, HashSet<AllowRule, FixedState>) {
        let prev_by_name: HashMap<&str, &Segment> =
            prev_seg.segments().iter().map(|s| (s.name.as_str(), s)).collect();
        let mut carried = vec![false; seg.len()];
        let mut prev_to_cur: HashMap<SegmentId, SegmentId> = HashMap::new();
        for s in seg.segments() {
            if let Some(ps) = prev_by_name.get(s.name.as_str()) {
                if ps.members == s.members && s.members.iter().all(|ip| !dirty.contains(ip)) {
                    carried[s.id.0 as usize] = true;
                    prev_to_cur.insert(ps.id, s.id);
                }
            }
        }
        let mut rules = HashSet::default();
        for r in &self.rules {
            if let (Some(&a), Some(&b)) = (prev_to_cur.get(&r.a), prev_to_cur.get(&r.b)) {
                rules.insert(AllowRule::new(a, b, r.port));
            }
        }
        (carried, rules)
    }

    /// Number of allow rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The rules, sorted (stable output for reports).
    pub fn rules(&self) -> Vec<AllowRule> {
        let mut v: Vec<AllowRule> = self.rules.iter().copied().collect();
        v.sort();
        v
    }

    /// Add an explicit allow rule (operator override).
    pub fn allow(&mut self, a: SegmentId, b: SegmentId, port: u16) {
        self.rules.insert(AllowRule::new(a, b, port));
    }

    /// Does the policy allow segments `a` and `b` to talk on `port`?
    pub fn allows(&self, a: SegmentId, b: SegmentId, port: u16) -> bool {
        if self.rules.contains(&AllowRule::new(a, b, ANY_PORT)) {
            return true;
        }
        self.port_scoped && port != ANY_PORT && self.rules.contains(&AllowRule::new(a, b, port))
    }

    /// Segments directly reachable from `s` under this policy (including
    /// itself if a self-rule exists).
    pub(crate) fn reachable_from(&self, s: SegmentId) -> Vec<SegmentId> {
        let mut out: Vec<SegmentId> = self
            .rules
            .iter()
            .filter_map(|r| {
                if r.a == s {
                    Some(r.b)
                } else if r.b == s {
                    Some(r.a)
                } else {
                    None
                }
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Insert the rules of every edge of `g` between two segmented nodes whose
/// segment pair `skip` does not exclude.
fn learn_edges(
    g: &CommGraph,
    seg: &Segmentation,
    port_scoped: bool,
    skip: impl Fn(SegmentId, SegmentId) -> bool,
    rules: &mut HashSet<AllowRule, FixedState>,
) {
    let segment: Vec<Option<SegmentId>> =
        g.nodes().iter().map(|n| n.ip().and_then(|ip| seg.segment_of(ip))).collect();
    for (i, sa) in (0..).zip(&segment) {
        let Some(sa) = *sa else { continue };
        // Each undirected edge once, from its lower end (a self-loop from its
        // only one): the neighbour list is sorted.
        let list = g.neighbors(i);
        for e in &list[list.partition_point(|e| e.node < i)..] {
            let Some(&Some(sb)) = segment.get(e.node as usize) else { continue };
            if skip(sa, sb) {
                continue;
            }
            if port_scoped {
                rules.extend(g.ports(i, e).iter().map(|&port| AllowRule::new(sa, sb, port)));
            } else {
                rules.insert(AllowRule::new(sa, sb, ANY_PORT));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlog::record::FlowKey;
    use std::net::Ipv4Addr;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    fn seg2() -> Segmentation {
        Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1), ip(0, 2)], true),
            ("db".into(), vec![ip(1, 1)], true),
            ("cache".into(), vec![ip(2, 1)], true),
        ])
    }

    fn rec(l: Ipv4Addr, lp: u16, r: Ipv4Addr, rp: u16) -> ConnSummary {
        ConnSummary {
            ts: 0,
            key: FlowKey::tcp(l, lp, r, rp),
            pkts_sent: 1,
            pkts_rcvd: 1,
            bytes_sent: 100,
            bytes_rcvd: 100,
        }
    }

    #[test]
    fn service_port_heuristics() {
        assert_eq!(service_port(&FlowKey::tcp(ip(0, 1), 40_000, ip(1, 1), 443)), 443);
        assert_eq!(service_port(&FlowKey::tcp(ip(0, 1), 443, ip(1, 1), 40_000)), 443);
        assert_eq!(service_port(&FlowKey::tcp(ip(0, 1), 443, ip(1, 1), 8080)), 443);
        assert_eq!(service_port(&FlowKey::tcp(ip(0, 1), 40_000, ip(1, 1), 50_000)), ANY_PORT);
    }

    /// `AllowRule` reaches the fixed hasher as the one word a‖b‖port: a
    /// change in how it feeds the mixer fails here, not as a benchmark shift.
    #[test]
    fn allow_rule_hash_is_pinned() {
        use std::hash::BuildHasher;
        let rule = AllowRule::new(SegmentId(3), SegmentId(1), 443);
        let word = 1u64 << 32 | 3 << 16 | 443;
        assert_eq!(FixedState::default().hash_one(rule), FixedState::default().hash_one(word));
        assert_eq!(FixedState::default().hash_one(rule), 13147869829364262308);
    }

    #[test]
    fn learned_policy_allows_observed_denies_rest() {
        let seg = seg2();
        let records = vec![rec(ip(0, 1), 40_000, ip(1, 1), 5432)];
        let p = SegmentPolicy::learn(&records, &seg, false);
        let (web, db, cache) = (SegmentId(0), SegmentId(1), SegmentId(2));
        assert!(p.allows(web, db, 5432));
        assert!(p.allows(db, web, 1234), "pair rule is symmetric and port-free");
        assert!(!p.allows(web, cache, 6379), "default deny");
        assert!(!p.allows(db, cache, 5432));
    }

    #[test]
    fn port_scoped_policy_is_stricter() {
        let seg = seg2();
        let records = vec![rec(ip(0, 1), 40_000, ip(1, 1), 5432)];
        let p = SegmentPolicy::learn(&records, &seg, true);
        let (web, db) = (SegmentId(0), SegmentId(1));
        assert!(p.allows(web, db, 5432));
        assert!(!p.allows(web, db, 22), "same pair, unapproved port → deny");
    }

    #[test]
    fn unknown_ips_never_learned() {
        let seg = seg2();
        let stranger = Ipv4Addr::new(203, 0, 113, 9);
        let records = vec![rec(ip(0, 1), 40_000, stranger, 443)];
        let p = SegmentPolicy::learn(&records, &seg, false);
        assert_eq!(p.rule_count(), 0);
    }

    #[test]
    fn learning_is_direction_independent() {
        let seg = seg2();
        let fwd = vec![rec(ip(0, 1), 40_000, ip(1, 1), 5432)];
        let rev = vec![rec(ip(1, 1), 5432, ip(0, 1), 40_000)];
        let pf = SegmentPolicy::learn(&fwd, &seg, true);
        let pr = SegmentPolicy::learn(&rev, &seg, true);
        assert_eq!(pf.rules(), pr.rules());
    }

    #[test]
    fn explicit_allow_and_reachability() {
        let mut p = SegmentPolicy::deny_all(false);
        p.allow(SegmentId(0), SegmentId(1), ANY_PORT);
        p.allow(SegmentId(2), SegmentId(0), ANY_PORT);
        assert_eq!(p.reachable_from(SegmentId(0)), vec![SegmentId(1), SegmentId(2)]);
        assert_eq!(p.reachable_from(SegmentId(1)), vec![SegmentId(0)]);
        assert!(p.reachable_from(SegmentId(9)).is_empty());
    }

    #[test]
    fn incremental_learn_matches_full_learn_under_churn() {
        // Four segments; between windows only web's traffic to cache
        // changes, so db↔mq survives as a carried-over pair.
        let seg = Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1), ip(0, 2)], true),
            ("db".into(), vec![ip(1, 1)], true),
            ("cache".into(), vec![ip(2, 1)], true),
            ("mq".into(), vec![ip(3, 1)], true),
        ]);
        let w1 = vec![
            rec(ip(0, 1), 40_000, ip(1, 1), 5432),
            rec(ip(0, 2), 40_001, ip(1, 1), 5432),
            rec(ip(0, 1), 40_002, ip(2, 1), 6379),
            rec(ip(1, 1), 40_003, ip(3, 1), 5672),
        ];
        let w2 = vec![
            rec(ip(0, 1), 40_000, ip(1, 1), 5432),
            rec(ip(0, 2), 40_001, ip(1, 1), 5432),
            rec(ip(0, 1), 40_002, ip(2, 1), 6380), // changed service port
            rec(ip(1, 1), 40_003, ip(3, 1), 5672),
        ];
        // The 10.0.0.1 ↔ 10.0.2.1 conversation changed, so both endpoints
        // are dirty; db's and mq's traffic is identical, so they carry.
        let dirty: HashSet<Ipv4Addr> = [ip(0, 1), ip(2, 1)].into_iter().collect();
        for port_scoped in [false, true] {
            let prev = SegmentPolicy::learn(&w1, &seg, port_scoped);
            let inc = SegmentPolicy::learn_incremental(&w2, &seg, &seg, &prev, &dirty, port_scoped);
            let full = SegmentPolicy::learn(&w2, &seg, port_scoped);
            assert_eq!(inc.rules(), full.rules(), "port_scoped={port_scoped}");
            assert_eq!(inc.port_scoped, full.port_scoped);
        }
    }

    #[test]
    fn incremental_learn_with_no_churn_is_identity() {
        let seg = seg2();
        let w = vec![rec(ip(0, 1), 40_000, ip(1, 1), 5432), rec(ip(0, 2), 40_001, ip(2, 1), 6379)];
        let prev = SegmentPolicy::learn(&w, &seg, true);
        let inc = SegmentPolicy::learn_incremental(&w, &seg, &seg, &prev, &HashSet::new(), true);
        assert_eq!(inc.rules(), prev.rules());
    }

    #[test]
    fn incremental_learn_relearns_on_membership_change() {
        // web gains a member between windows: its pairs must be re-learned
        // even though the old members' traffic is unchanged.
        let seg1 = Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1)], true),
            ("db".into(), vec![ip(1, 1)], true),
        ]);
        let seg2w = Segmentation::from_members(vec![
            ("web".into(), vec![ip(0, 1), ip(0, 2)], true),
            ("db".into(), vec![ip(1, 1)], true),
        ]);
        let w1 = vec![rec(ip(0, 1), 40_000, ip(1, 1), 5432)];
        let w2 = vec![rec(ip(0, 1), 40_000, ip(1, 1), 5432), rec(ip(0, 2), 40_001, ip(1, 1), 9042)];
        let dirty: HashSet<Ipv4Addr> = [ip(0, 2), ip(1, 1)].into_iter().collect();
        let prev = SegmentPolicy::learn(&w1, &seg1, true);
        let inc = SegmentPolicy::learn_incremental(&w2, &seg2w, &seg1, &prev, &dirty, true);
        let full = SegmentPolicy::learn(&w2, &seg2w, true);
        assert_eq!(inc.rules(), full.rules());
        assert!(inc.allows(SegmentId(0), SegmentId(1), 9042), "new conversation learned");
    }

    #[test]
    fn incremental_learn_falls_back_on_scope_mismatch() {
        let seg = seg2();
        let w = vec![rec(ip(0, 1), 40_000, ip(1, 1), 5432)];
        let prev = SegmentPolicy::learn(&w, &seg, false);
        // Requesting port-scoped rules from a pair-scoped memo: full relearn.
        let inc = SegmentPolicy::learn_incremental(&w, &seg, &seg, &prev, &HashSet::new(), true);
        let full = SegmentPolicy::learn(&w, &seg, true);
        assert_eq!(inc.rules(), full.rules());
        assert!(inc.port_scoped);
    }

    #[test]
    fn self_segment_rules_work() {
        let seg = seg2();
        // web replica to web replica (e.g. gossip).
        let records = vec![rec(ip(0, 1), 40_000, ip(0, 2), 7946)];
        let p = SegmentPolicy::learn(&records, &seg, false);
        assert!(p.allows(SegmentId(0), SegmentId(0), 7946));
        assert_eq!(p.reachable_from(SegmentId(0)), vec![SegmentId(0)]);
    }
}
