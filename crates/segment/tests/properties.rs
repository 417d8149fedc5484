//! Property-based tests for micro-segmentation invariants.

use flowlog::record::{ConnSummary, FlowKey};
use proptest::prelude::*;
use segment::blast::{blast_radius, fleet_blast_report};
use segment::compile::compile;
use segment::policy::{SegmentPolicy, ANY_PORT};
use segment::{SegmentId, Segmentation, Verdict, ViolationDetector};
use std::net::Ipv4Addr;

/// Arbitrary segmentation: 2–5 internal segments of 1–8 members each.
fn arb_segmentation() -> impl Strategy<Value = Segmentation> {
    prop::collection::vec(1usize..8, 2..5).prop_map(|sizes| {
        let mut groups = Vec::new();
        for (s, n) in sizes.iter().enumerate() {
            let members: Vec<Ipv4Addr> =
                (0..*n).map(|i| Ipv4Addr::new(10, 0, s as u8, i as u8 + 1)).collect();
            groups.push((format!("seg{s}"), members, true));
        }
        Segmentation::from_members(groups)
    })
}

/// Records between random members of a segmentation.
fn arb_records(seg: &Segmentation, n: usize) -> impl Strategy<Value = Vec<ConnSummary>> {
    let all: Vec<Ipv4Addr> = seg.segments().iter().flat_map(|s| s.members.clone()).collect();
    let len = all.len();
    prop::collection::vec((0..len, 0..len, 1u16..1000, 1u64..100_000), 1..n).prop_map(
        move |tuples| {
            tuples
                .into_iter()
                .filter(|(a, b, _, _)| a != b)
                .map(|(a, b, port, bytes)| ConnSummary {
                    ts: 0,
                    key: FlowKey::tcp(all[a], 40_000, all[b], port),
                    pkts_sent: bytes / 1000 + 1,
                    pkts_rcvd: 1,
                    bytes_sent: bytes,
                    bytes_rcvd: 100,
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fundamental learning invariant: a window can never violate the
    /// policy learned from it — for any segmentation, any traffic, any
    /// port scoping.
    #[test]
    fn learned_policy_never_flags_its_window(
        (seg, records, port_scoped) in arb_segmentation().prop_flat_map(|seg| {
            let recs = arb_records(&seg, 40);
            (Just(seg), recs, any::<bool>())
        })
    ) {
        let policy = SegmentPolicy::learn(&records, &seg, port_scoped);
        let mut det = ViolationDetector::new(seg, policy);
        let violations = det.check_all(&records);
        prop_assert!(violations.is_empty(), "{} violations", violations.len());
    }

    /// Policy symmetry: if (a → b) was learned, b → a traffic on the same
    /// service port is also allowed (rules are unordered pairs).
    #[test]
    fn policy_is_direction_symmetric(
        (seg, records) in arb_segmentation().prop_flat_map(|seg| {
            let recs = arb_records(&seg, 30);
            (Just(seg), recs)
        })
    ) {
        let policy = SegmentPolicy::learn(&records, &seg, true);
        let mut det = ViolationDetector::new(seg, policy);
        let mirrored: Vec<ConnSummary> = records.iter().map(|r| r.mirrored()).collect();
        let violations = det.check_all(&mirrored);
        prop_assert!(violations.is_empty(), "mirrored traffic must pass");
    }

    /// Blast radius invariants: direct ≤ transitive ≤ unsegmented, and a
    /// deny-all policy yields zero radius everywhere.
    #[test]
    fn blast_radius_bounds(
        (seg, records) in arb_segmentation().prop_flat_map(|seg| {
            let recs = arb_records(&seg, 40);
            (Just(seg), recs)
        })
    ) {
        let policy = SegmentPolicy::learn(&records, &seg, false);
        for s in seg.segments() {
            for &ip in &s.members {
                let b = blast_radius(&seg, &policy, ip).expect("member is segmented");
                prop_assert!(b.direct <= b.transitive);
                prop_assert!(b.transitive <= b.unsegmented);
                prop_assert!(b.direct_fraction <= 1.0);
            }
        }
        let deny = SegmentPolicy::deny_all(false);
        let report = fleet_blast_report(&seg, &deny);
        prop_assert_eq!(report.mean_direct, 0.0);
        prop_assert_eq!(report.max_direct, 0);
    }

    /// Compilation arithmetic: total ip rules = Σ per-VM; tag rules per VM
    /// never exceed ip rules per VM (tags can only compress).
    #[test]
    fn compile_accounting(
        (seg, records) in arb_segmentation().prop_flat_map(|seg| {
            let recs = arb_records(&seg, 40);
            (Just(seg), recs)
        })
    ) {
        let policy = SegmentPolicy::learn(&records, &seg, true);
        let report = compile(&seg, &policy, 1000);
        let sum_ip: usize = report.per_vm.iter().map(|v| v.ip_rules).sum();
        let sum_tag: usize = report.per_vm.iter().map(|v| v.tag_rules).sum();
        prop_assert_eq!(sum_ip, report.total_ip_rules);
        prop_assert_eq!(sum_tag, report.total_tag_rules);
        for vm in &report.per_vm {
            prop_assert!(
                vm.tag_rules <= vm.ip_rules.max(vm.tag_rules),
                "tags never need more scopes than unrolled rules have entries"
            );
        }
        prop_assert_eq!(report.per_vm.len(), seg.internal_members());
    }

    /// Adding an explicit allow rule is monotone: nothing previously
    /// allowed becomes denied.
    #[test]
    fn allow_is_monotone(
        (seg, records, extra_a, extra_b) in arb_segmentation().prop_flat_map(|seg| {
            let n = seg.len() as u16;
            let recs = arb_records(&seg, 30);
            (Just(seg), recs, 0..n, 0..n)
        })
    ) {
        let base = SegmentPolicy::learn(&records, &seg, false);
        let mut extended = base.clone();
        extended.allow(SegmentId(extra_a), SegmentId(extra_b), ANY_PORT);
        for a in 0..seg.len() as u16 {
            for b in 0..seg.len() as u16 {
                if base.allows(SegmentId(a), SegmentId(b), 80) {
                    prop_assert!(extended.allows(SegmentId(a), SegmentId(b), 80));
                }
            }
        }
        prop_assert!(extended.allows(SegmentId(extra_a), SegmentId(extra_b), 80));
    }
}

/// The policy's three record scans — `learn`, `learn_incremental`,
/// `check_all` — against a from-scratch reference that shares no code with
/// them: ordered collections, its own service-port rule, plain tuples.
mod reference {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    pub type Groups = Vec<(String, Vec<Ipv4Addr>, bool)>;
    pub type Rule = (u16, u16, u16);

    fn service_port(local: u16, remote: u16) -> u16 {
        match (local >= 32_768, remote >= 32_768) {
            (true, true) => 0,
            (true, false) => remote,
            (false, true) => local,
            (false, false) => local.min(remote),
        }
    }

    fn segment_map(groups: &Groups) -> BTreeMap<Ipv4Addr, u16> {
        let mut map = BTreeMap::new();
        for (s, (_, members, _)) in groups.iter().enumerate() {
            map.extend(members.iter().map(|ip| (*ip, s as u16)));
        }
        map
    }

    fn rule_of(map: &BTreeMap<Ipv4Addr, u16>, r: &ConnSummary, scoped: bool) -> Option<Rule> {
        let (a, b) = (*map.get(&r.key.local_ip)?, *map.get(&r.key.remote_ip)?);
        let port = if scoped { service_port(r.key.local_port, r.key.remote_port) } else { 0 };
        Some((a.min(b), a.max(b), port))
    }

    pub fn learn(records: &[ConnSummary], groups: &Groups, scoped: bool) -> BTreeSet<Rule> {
        let map = segment_map(groups);
        records.iter().filter_map(|r| rule_of(&map, r, scoped)).collect()
    }

    /// The carry-over rule, restated: a group is carried when the previous
    /// grouping has one of the same name and members and none is dirty;
    /// rules between two carried groups are renumbered from `prev_rules`,
    /// records between two carried groups are skipped, all else is learned.
    pub fn learn_incremental(
        records: &[ConnSummary],
        groups: &Groups,
        prev_groups: &Groups,
        prev_rules: &BTreeSet<Rule>,
        dirty: &BTreeSet<Ipv4Addr>,
        scoped: bool,
    ) -> BTreeSet<Rule> {
        let set = |members: &[Ipv4Addr]| members.iter().copied().collect::<BTreeSet<_>>();
        let mut prev_to_cur: BTreeMap<u16, u16> = BTreeMap::new();
        for (i, (name, members, _)) in groups.iter().enumerate() {
            let same = prev_groups.iter().position(|p| p.0 == *name && set(&p.1) == set(members));
            if let Some(p) = same.filter(|_| dirty.is_disjoint(&set(members))) {
                prev_to_cur.insert(p as u16, i as u16);
            }
        }
        let carried: BTreeSet<u16> = prev_to_cur.values().copied().collect();
        let map = segment_map(groups);
        let mut rules: BTreeSet<Rule> = prev_rules
            .iter()
            .filter_map(|&(a, b, port)| {
                let (a, b) = (*prev_to_cur.get(&a)?, *prev_to_cur.get(&b)?);
                Some((a.min(b), a.max(b), port))
            })
            .collect();
        for r in records {
            let (Some(a), Some(b)) = (map.get(&r.key.local_ip), map.get(&r.key.remote_ip)) else {
                continue;
            };
            if !(carried.contains(a) && carried.contains(b)) {
                rules.extend(rule_of(&map, r, scoped));
            }
        }
        rules
    }

    pub type Flagged = (u64, Ipv4Addr, Ipv4Addr, u16, Verdict);

    pub fn check_all(
        records: &[ConnSummary],
        groups: &Groups,
        rules: &BTreeSet<Rule>,
        scoped: bool,
    ) -> Vec<Flagged> {
        let map = segment_map(groups);
        let mut out = Vec::new();
        for r in records {
            let port = service_port(r.key.local_port, r.key.remote_port);
            let verdict = match (map.get(&r.key.local_ip), map.get(&r.key.remote_ip)) {
                (Some(&a), Some(&b)) => {
                    let pair = (a.min(b), a.max(b));
                    let by_port = scoped && port != 0 && rules.contains(&(pair.0, pair.1, port));
                    if rules.contains(&(pair.0, pair.1, 0)) || by_port {
                        continue;
                    }
                    Verdict::DeniedPair { local: SegmentId(a), remote: SegmentId(b), port }
                }
                (Some(_), None) => Verdict::UnknownPeer { peer: r.key.remote_ip },
                (None, _) => Verdict::UnknownPeer { peer: r.key.local_ip },
            };
            out.push((r.ts, r.key.local_ip, r.key.remote_ip, port, verdict));
        }
        out
    }
}

/// Seed sweep over the three scans. Streams hold unknown peers,
/// both-ephemeral and both-service flows, self-segment flows and mirrored
/// copies; groupings drift between windows (reordered, so ids move; members
/// gained and lost; groups renamed); dirty sets are random; both scopes run,
/// and a previous policy of the other scope forces the full relearn.
#[test]
fn policy_scans_match_a_reference_over_ordered_collections() {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use reference::Groups;
    use std::collections::BTreeSet;

    const PORTS: [u16; 6] = [22, 443, 5432, 32_767, 32_768, 51_000];
    let stream = |rng: &mut StdRng, pool: &[Ipv4Addr], ts0: u64| -> Vec<ConnSummary> {
        let mut out = Vec::new();
        for i in 0..rng.random_range(1..120u64) {
            let pick = |rng: &mut StdRng| pool[rng.random_range(0..pool.len())];
            let port = |rng: &mut StdRng| PORTS[rng.random_range(0..PORTS.len())];
            let key = FlowKey::tcp(pick(rng), port(rng), pick(rng), port(rng));
            let r = ConnSummary {
                ts: ts0 + i,
                key,
                pkts_sent: 1,
                pkts_rcvd: 1,
                bytes_sent: rng.random_range(1..9_000u64),
                bytes_rcvd: 1,
            };
            out.push(r);
            if rng.random_bool(0.2) {
                out.push(r.mirrored());
            }
        }
        out
    };
    let tuples = |p: &SegmentPolicy| -> Vec<reference::Rule> {
        p.rules().iter().map(|r| (r.a.0, r.b.0, r.port)).collect()
    };
    let (mut carried_rules, mut denied, mut unknown) = (0usize, 0usize, 0usize);
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let prev_groups: Groups = (0..rng.random_range(2..7u32) as u8)
            .map(|s| {
                let n = rng.random_range(1..6u32) as u8;
                let members = (1..=n).map(|i| Ipv4Addr::new(10, 0, s, i)).collect();
                (format!("seg{s}"), members, rng.random_bool(0.8))
            })
            .collect();
        // Drift: rotate the order, then per group maybe gain a member, lose
        // one, or take a new name.
        let mut groups = prev_groups.clone();
        let by = rng.random_range(0..groups.len());
        groups.rotate_left(by);
        for (s, g) in groups.iter_mut().enumerate() {
            match rng.random_range(0..10u32) {
                0 => g.1.push(Ipv4Addr::new(10, 1, s as u8, 1)),
                1 if g.1.len() > 1 => drop(g.1.pop()),
                2 => g.0.push_str("-renamed"),
                _ => {}
            }
        }
        let mut pool: Vec<Ipv4Addr> =
            prev_groups.iter().chain(&groups).flat_map(|g| g.1.clone()).collect();
        pool.extend((1..4).map(|i| Ipv4Addr::new(203, 0, 113, i)));
        let (w1, w2) = (stream(&mut rng, &pool, 0), stream(&mut rng, &pool, 1_000));
        let dirty: BTreeSet<Ipv4Addr> =
            pool.iter().copied().filter(|_| rng.random_bool(0.15)).collect();
        let hashed_dirty = dirty.iter().copied().collect();
        let (prev_seg, seg) = (
            Segmentation::from_members(prev_groups.clone()),
            Segmentation::from_members(groups.clone()),
        );
        for scoped in [false, true] {
            let case = format!("seed {seed}, port_scoped {scoped}");
            let prev = SegmentPolicy::learn(&w1, &prev_seg, scoped);
            let prev_ref = reference::learn(&w1, &prev_groups, scoped);
            assert_eq!(tuples(&prev), Vec::from_iter(prev_ref.clone()), "learn, {case}");

            let inc = SegmentPolicy::learn_incremental(
                &w2,
                &seg,
                &prev_seg,
                &prev,
                &hashed_dirty,
                scoped,
            );
            let inc_ref =
                reference::learn_incremental(&w2, &groups, &prev_groups, &prev_ref, &dirty, scoped);
            assert_eq!(tuples(&inc), Vec::from_iter(inc_ref.clone()), "incremental, {case}");
            carried_rules += inc_ref.difference(&reference::learn(&w2, &groups, scoped)).count();
            // A previous policy of the other scope cannot be reused.
            let other = SegmentPolicy::learn(&w1, &prev_seg, !scoped);
            let relearned = SegmentPolicy::learn_incremental(
                &w2,
                &seg,
                &prev_seg,
                &other,
                &hashed_dirty,
                scoped,
            );
            let full = Vec::from_iter(reference::learn(&w2, &groups, scoped));
            assert_eq!(tuples(&relearned), full, "scope mismatch, {case}");

            // Both windows against the incremental policy: window 1 predates
            // the drift, so denials and strangers both occur.
            let both = [w1.as_slice(), &w2].concat();
            let mut det = ViolationDetector::new(seg.clone(), inc);
            let got: Vec<reference::Flagged> = det
                .check_all(&both)
                .into_iter()
                .map(|v| (v.ts, v.local_ip, v.remote_ip, v.port, v.verdict))
                .collect();
            let want = reference::check_all(&both, &groups, &inc_ref, scoped);
            assert_eq!(got, want, "check_all, {case}");
            assert_eq!(det.counts(), (both.len() as u64, want.len() as u64), "{case}");
            denied += want.iter().filter(|f| matches!(f.4, Verdict::DeniedPair { .. })).count();
            unknown += want.iter().filter(|f| matches!(f.4, Verdict::UnknownPeer { .. })).count();
        }
    }
    assert!(
        carried_rules > 50 && denied > 500 && unknown > 500,
        "thin sweep: {carried_rules} carried-only rules, {denied} denied, {unknown} unknown"
    );
}
