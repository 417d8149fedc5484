//! Property-based tests for micro-segmentation invariants.

use commgraph_graph::{CommGraph, Facet, GraphBuilder, Inventory, Outcome, WindowedBuilder};
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

/// Records through the window roll, as a pipeline feeds them: each closed
/// window's graph, with the records it kept (outcome `Kept`).
fn roll(
    records: &[ConnSummary],
    window: u64,
    monitored: &Inventory,
) -> (Vec<CommGraph>, Vec<Vec<ConnSummary>>) {
    let mut wb = WindowedBuilder::new(window).with_monitored(monitored.clone());
    let (mut graphs, mut kept) = (Vec::new(), Vec::<Vec<ConnSummary>>::new());
    for r in records {
        let (outcome, closed) = wb.add(r);
        if closed.is_some() || kept.is_empty() {
            kept.push(Vec::new());
        }
        graphs.extend(closed);
        if outcome == Outcome::Kept {
            kept.last_mut().expect("a window is open").push(*r);
        }
    }
    graphs.extend(wb.finish());
    (graphs, kept)
}

/// Seed sweep over the three scans and the two graph learners. Streams hold
/// unknown peers, both-ephemeral and both-service flows, self-segment flows
/// and mirrored copies; groupings drift between windows (reordered, so ids
/// move; members gained and lost; groups renamed); dirty sets are random;
/// both scopes run, and a previous policy of the other scope forces the
/// full relearn. The graph learners read the windows the roll builds —
/// vantage dedup on for half the seeds, stragglers behind the open window
/// in every stream — and must learn the reference over the records each
/// window kept.
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
    let (mut carried_rules, mut denied, mut unknown, mut graph_rules) = (0usize, 0, 0, 0);
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
        // The same two windows through the roll, with every fourth record
        // of the first re-sent once the second is open: those are behind.
        let stragglers = w1.iter().step_by(4).copied();
        let rolled: Vec<ConnSummary> = w1.iter().chain(&w2).copied().chain(stragglers).collect();
        let monitored = if seed % 2 == 0 {
            Inventory::from(pool.iter().copied().collect::<std::collections::HashSet<_>>())
        } else {
            Inventory::default()
        };
        let (graphs, kept) = roll(&rolled, 1_000, &monitored);
        assert_eq!((graphs.len(), kept.len()), (2, 2), "seed {seed}: two windows");
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

            // The graph learners: the reference over the records the roll kept.
            let prev_g = SegmentPolicy::learn_graph(&graphs[0], &prev_seg, scoped);
            let prev_g_ref = reference::learn(&kept[0], &prev_groups, scoped);
            assert_eq!(tuples(&prev_g), Vec::from_iter(prev_g_ref.clone()), "learn_graph, {case}");
            let inc_g = SegmentPolicy::learn_incremental_graph(
                &graphs[1],
                &seg,
                &prev_seg,
                &prev_g,
                &hashed_dirty,
                scoped,
            );
            let inc_g_ref = reference::learn_incremental(
                &kept[1],
                &groups,
                &prev_groups,
                &prev_g_ref,
                &dirty,
                scoped,
            );
            assert_eq!(tuples(&inc_g), Vec::from_iter(inc_g_ref), "incremental graph, {case}");
            let other = SegmentPolicy::learn_graph(&graphs[0], &prev_seg, !scoped);
            let relearned = SegmentPolicy::learn_incremental_graph(
                &graphs[1],
                &seg,
                &prev_seg,
                &other,
                &hashed_dirty,
                scoped,
            );
            let full = Vec::from_iter(reference::learn(&kept[1], &groups, scoped));
            assert_eq!(tuples(&relearned), full, "graph scope mismatch, {case}");
            graph_rules += full.len();

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
        carried_rules > 50 && denied > 500 && unknown > 500 && graph_rules > 500,
        "thin sweep: {carried_rules} carried-only rules, {denied} denied, {unknown} unknown, \
         {graph_rules} rules learned from graphs"
    );
}

fn flow(
    ts: u64,
    local: Ipv4Addr,
    local_port: u16,
    remote: Ipv4Addr,
    remote_port: u16,
) -> ConnSummary {
    ConnSummary {
        ts,
        key: FlowKey::tcp(local, local_port, remote, remote_port),
        pkts_sent: 2,
        pkts_rcvd: 1,
        bytes_sent: 900,
        bytes_rcvd: 100,
    }
}

/// Three hosts in three segments, one address each.
fn three_segments() -> (Segmentation, [Ipv4Addr; 3]) {
    let hosts = [1, 2, 3].map(|d| Ipv4Addr::new(10, 0, 0, d));
    let groups = hosts.iter().enumerate().map(|(i, ip)| (format!("s{i}"), vec![*ip], true));
    (Segmentation::from_members(groups.collect()), hosts)
}

/// The graph a window roll hands out lacks the records it dropped as
/// behind, and so does the policy learned from it: against `learn` over the
/// window's records it lacks exactly the rules only those stragglers
/// carried, and a straggler's flow is flagged, never admitted.
#[test]
fn graph_policy_lacks_exactly_the_rules_of_records_behind_the_roll() {
    let (seg, [a, b, c]) = three_segments();
    let window =
        [flow(0, a, 40_000, b, 443), flow(5, a, 40_001, c, 5432), flow(9, b, 40_002, c, 22)];
    // Window 60 opens, then three stragglers from window 0 arrive: one
    // repeats a kept rule, two carry rules nothing kept carries.
    let stragglers =
        [flow(10, a, 40_003, b, 443), flow(20, b, 40_004, c, 8080), flow(30, c, 40_005, a, 9000)];
    let next = flow(61, a, 40_006, b, 443);
    let mut wb = WindowedBuilder::new(60);
    let mut graphs = Vec::new();
    let mut behind = Vec::new();
    for r in window.iter().chain([&next]).chain(&stragglers) {
        let (outcome, closed) = wb.add(r);
        graphs.extend(closed);
        if outcome == Outcome::Behind {
            behind.push(*r);
        }
    }
    assert_eq!(behind, stragglers, "the roll drops exactly the stragglers");
    let from_graph = SegmentPolicy::learn_graph(&graphs[0], &seg, true);
    assert_eq!(from_graph.rules(), SegmentPolicy::learn(&window, &seg, true).rules());
    let all: Vec<ConnSummary> = window.iter().chain(&stragglers).copied().collect();
    let from_records = SegmentPolicy::learn(&all, &seg, true);
    let missing: Vec<_> =
        from_records.rules().into_iter().filter(|r| !from_graph.rules().contains(r)).collect();
    let theirs = SegmentPolicy::learn(&stragglers[1..], &seg, true).rules();
    assert_eq!(missing, theirs, "the difference is the stragglers' own rules");
    // Fail closed: the stragglers' new flows are flagged by the graph's policy.
    let mut det = ViolationDetector::new(seg, from_graph);
    let flagged: Vec<u64> = det.check_all(&stragglers).iter().map(|v| v.ts).collect();
    assert_eq!(flagged, [20, 30]);
}

/// A flow between two monitored hosts is counted once, from its canonical
/// vantage; a non-canonical copy whose canonical twin never arrived is in
/// no graph. The graph's policy lacks exactly those copies' rules — and
/// denies their flows — while a copy whose twin did arrive changes nothing.
#[test]
fn graph_policy_lacks_exactly_the_rules_of_twinless_deduped_copies() {
    let (seg, [a, b, c]) = three_segments();
    let monitored =
        Inventory::from([a, b, c].into_iter().collect::<std::collections::HashSet<_>>());
    let canonical = |r: ConnSummary| if r.key.is_canonical() { r } else { r.mirrored() };
    let twinned = canonical(flow(0, a, 40_000, b, 443));
    let twinless = [canonical(flow(1, b, 40_001, c, 5432)), canonical(flow(2, a, 40_002, c, 22))];
    let mut records = vec![twinned, twinned.mirrored()];
    records.extend(twinless.iter().map(ConnSummary::mirrored));
    let mut builder = GraphBuilder::new(Facet::Ip, 0, 60).with_monitored(monitored);
    let deduped: Vec<ConnSummary> = records.iter().filter(|r| !builder.add(r)).copied().collect();
    assert_eq!(deduped.len(), 3, "every non-canonical copy is deduped");
    let g = builder.finish();
    let from_graph = SegmentPolicy::learn_graph(&g, &seg, true);
    assert_eq!(from_graph.rules(), SegmentPolicy::learn(&[twinned], &seg, true).rules());
    let from_records = SegmentPolicy::learn(&records, &seg, true);
    let missing: Vec<_> =
        from_records.rules().into_iter().filter(|r| !from_graph.rules().contains(r)).collect();
    let twinless_copies: Vec<ConnSummary> = twinless.iter().map(ConnSummary::mirrored).collect();
    assert_eq!(missing, SegmentPolicy::learn(&twinless_copies, &seg, true).rules());
    let mut det = ViolationDetector::new(seg, from_graph);
    assert_eq!(det.check_all(&twinless_copies).len(), 2, "fail closed: both flagged");
    assert!(det.check_all(&[twinned, twinned.mirrored()]).is_empty());
}

/// One source scanning 1 000 ports of one host is one edge carrying 1 000
/// ports, and 1 000 rules. The builder's spill sets hold at most the
/// window's distinct (edge, port) pairs (their `// bound:`): here 999 past
/// the edge's first port, however often each is probed.
#[test]
fn a_port_scan_is_one_edge_and_a_thousand_rules() {
    let (seg, [a, b, _]) = three_segments();
    let mut records = Vec::new();
    for round in 0..3u16 {
        // Descending, then ascending, then interleaved: order never matters.
        let ports: Vec<u16> = match round {
            0 => (1..=1000).rev().collect(),
            1 => (1..=1000).collect(),
            _ => (1..=1000u32).map(|p| (p * 7919 % 1000 + 1) as u16).collect(),
        };
        records.extend(ports.into_iter().map(|p| flow(u64::from(round), a, 50_000, b, p)));
    }
    let mut builder = GraphBuilder::new(Facet::Ip, 0, 60);
    builder.add_all(&records);
    let g = builder.finish();
    assert_eq!(g.edge_count(), 1);
    let e = g.neighbors(0)[0];
    assert_eq!(g.ports(0, &e), Vec::from_iter(1..=1000u16), "ascending, distinct");
    assert_eq!(g.ports(1, &g.neighbors(1)[0]), g.ports(0, &e), "the same from either end");
    let policy = SegmentPolicy::learn_graph(&g, &seg, true);
    assert_eq!(policy.rule_count(), 1000);
    assert_eq!(policy.rules(), SegmentPolicy::learn(&records, &seg, true).rules());
    assert_eq!(SegmentPolicy::learn_graph(&g, &seg, false).rule_count(), 1, "port-free: the pair");
}

/// Collapsing keeps an edge's ports exactly when it keeps the edge 1:1
/// (both ends survive); edges merged into `Other` carry none. The policy is
/// unchanged: the addresses folded into `Other` are in no segment, so no
/// rule of theirs was ever learned.
#[test]
fn collapse_keeps_ports_on_kept_edges_and_the_policy_unchanged() {
    use commgraph_graph::collapse::collapse;
    use commgraph_graph::NodeId;
    let host = |d: u8| Ipv4Addr::new(10, 0, 0, d);
    let peer = |d: u8| Ipv4Addr::new(198, 51, 100, d);
    let mut records = Vec::new();
    for (i, port) in [443u16, 8080, 9090].iter().enumerate() {
        // Heavy internal traffic on three ports, and one tiny flow to each
        // of twenty external peers.
        records.push(ConnSummary {
            bytes_sent: 1_000_000,
            ..flow(i as u64, host(1), 40_000, host(2), *port)
        });
        records.push(ConnSummary {
            bytes_sent: 900_000,
            ..flow(i as u64, host(2), 40_001, host(3), 5432)
        });
    }
    records.extend((1..=20).map(|d| flow(9, host(3), 40_002, peer(d), 53)));
    let mut builder = GraphBuilder::new(Facet::Ip, 0, 60);
    builder.add_all(&records);
    let raw = builder.finish();
    let internal = |n: &NodeId| n.ip().is_some_and(|ip| ip.octets()[0] == 10);
    let g = collapse(&raw, 0.05, internal);
    let other = g.index_of(&NodeId::Other).expect("the peers fold");
    for i in 0..g.node_count() as u32 {
        for e in g.neighbors(i) {
            let (a, b) = (g.node(i), g.node(e.node));
            if i == other || e.node == other {
                assert!(g.ports(i, e).is_empty(), "{a} -- {b} merged into OTHER");
            } else {
                let (ra, rb) = (raw.index_of(&a).expect("kept"), raw.index_of(&b).expect("kept"));
                let re = raw.neighbors(ra).iter().find(|e| e.node == rb).expect("kept 1:1");
                assert_eq!(g.ports(i, e), raw.ports(ra, re), "{a} -- {b}");
            }
        }
    }
    let e12 = g.neighbors(0).iter().find(|e| g.node(e.node) == NodeId::Ip(host(2))).expect("edge");
    assert_eq!(g.ports(0, e12), [443, 8080, 9090]);
    let groups = [1, 2, 3].map(|d| (format!("h{d}"), vec![host(d)], true));
    let seg = Segmentation::from_members(groups.into());
    let policy = SegmentPolicy::learn_graph(&g, &seg, true);
    assert_eq!(policy.rules(), SegmentPolicy::learn_graph(&raw, &seg, true).rules());
    assert_eq!(policy.rules(), SegmentPolicy::learn(&records, &seg, true).rules());
    assert_eq!(policy.rule_count(), 4);
}
