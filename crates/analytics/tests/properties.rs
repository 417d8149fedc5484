//! Property-based tests for the analytics tier.

use analytics::sharded::{ShardedConfig, ShardedEngine};
use analytics::sketch::SpaceSaving;
use commgraph_graph::diff::dirty_nodes;
use commgraph_graph::{CommGraph, EdgeStats, Facet, GraphBuilder, Inventory, NodeId};
use flowlog::record::{ConnSummary, FlowKey};
use flowlog::time::bucket_start;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn arb_records() -> impl Strategy<Value = Vec<ConnSummary>> {
    prop::collection::vec((0u64..7200, 0u8..10, 0u8..10, 1u64..100_000), 1..150).prop_map(
        |tuples| {
            tuples
                .into_iter()
                .map(|(ts, l, r, bytes)| ConnSummary {
                    ts,
                    key: FlowKey::tcp(
                        Ipv4Addr::new(10, 0, 0, l + 1),
                        40_000 + (bytes % 500) as u16,
                        Ipv4Addr::new(10, 0, 1, r + 1),
                        443,
                    ),
                    pkts_sent: bytes / 1000 + 1,
                    pkts_rcvd: 1,
                    bytes_sent: bytes,
                    bytes_rcvd: bytes / 5,
                })
                .collect()
        },
    )
}

/// Build one single-window graph (window 0, one hour) from `records` with a
/// `ShardedEngine` at `shards` threads. An empty stream yields the empty
/// graph, matching what a fresh build over no records means.
fn engine_graph(records: &[ConnSummary], shards: usize) -> CommGraph {
    let mut e =
        ShardedEngine::new(ShardedConfig { shards, window_len: 3600, ..Default::default() })
            .expect("valid");
    for batch in records.chunks(64) {
        e.ingest("sub", batch).expect("ingest");
    }
    let (mut reports, _) = e.finish().expect("drain");
    match reports.pop().and_then(|mut r| r.graphs.pop()) {
        Some(g) => g,
        None => CommGraph::from_edge_map("ip", 0, 3600, HashMap::new()),
    }
}

/// Full (NodeId, NodeId) → (EdgeStats, ports) map of a graph.
fn edge_map(g: &CommGraph) -> HashMap<(NodeId, NodeId), (EdgeStats, Vec<u16>)> {
    let mut out = HashMap::new();
    for i in 0..g.node_count() as u32 {
        for e in g.neighbors(i) {
            if e.node >= i {
                out.insert((g.node(i), g.node(e.node)), (e.stats, g.ports(i, e).to_vec()));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The dirty-set contract behind incremental window maintenance, over
    /// random churn sequences: applying the next window's adjacency for
    /// *dirty* nodes onto the previous graph — and keeping clean nodes'
    /// adjacency verbatim — reconstructs the fresh build exactly. Verified
    /// with graphs built at 1, 2, and NCPU shard threads, which must all
    /// agree on the graphs and therefore the dirty set.
    #[test]
    fn dirty_set_reconstructs_fresh_build_under_churn(
        base in arb_records(),
        keep in prop::collection::vec(any::<bool>(), 150),
        bumps in prop::collection::vec((0usize..150, 1u64..50_000), 0..10),
        added in arb_records(),
    ) {
        // Fold every record into the single hour the helper builds.
        let mut base = base;
        let mut added = added;
        for r in base.iter_mut().chain(added.iter_mut()) {
            r.ts %= 3600;
        }
        // A two-step churn sequence: window 0 → drop/bump → window 1 → add.
        let step1: Vec<ConnSummary> = {
            let mut out: Vec<ConnSummary> = base
                .iter()
                .zip(keep.iter().cycle())
                .filter(|(_, &k)| k)
                .map(|(r, _)| *r)
                .collect();
            let len = out.len().max(1);
            for &(idx, extra) in &bumps {
                if let Some(r) = out.get_mut(idx % len) {
                    r.bytes_sent += extra;
                }
            }
            out
        };
        let step2: Vec<ConnSummary> =
            step1.iter().chain(added.iter()).copied().collect();
        let windows = [base, step1, step2];

        let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut worker_counts = vec![1, 2, ncpu];
        worker_counts.dedup();

        for pair in windows.windows(2) {
            let mut dirty_across_workers: Option<Vec<NodeId>> = None;
            for &workers in &worker_counts {
                let prev = engine_graph(&pair[0], workers);
                let cur = engine_graph(&pair[1], workers);
                let dirty = dirty_nodes(&prev, &cur);

                // Worker count never changes the graphs, so never the dirty set.
                match &dirty_across_workers {
                    None => dirty_across_workers = Some(dirty.clone()),
                    Some(d) => prop_assert_eq!(&dirty, d, "{} workers", workers),
                }

                // Delta-apply: clean-clean edges come from the previous
                // graph, anything touching a dirty node from the current.
                let is_dirty = |n: &NodeId| dirty.binary_search(n).is_ok();
                let mut rebuilt = HashMap::new();
                for (k, v) in edge_map(&prev) {
                    if !is_dirty(&k.0) && !is_dirty(&k.1) {
                        rebuilt.insert(k, v);
                    }
                }
                for (k, v) in edge_map(&cur) {
                    if is_dirty(&k.0) || is_dirty(&k.1) {
                        rebuilt.insert(k, v);
                    }
                }
                prop_assert_eq!(rebuilt, edge_map(&cur), "delta-applied dirty set == fresh build");

                // The clean node set carries over: nodes(cur) is exactly
                // nodes(prev) minus dirty plus dirty nodes still present.
                for n in prev.nodes() {
                    if !is_dirty(n) {
                        prop_assert!(cur.index_of(n).is_some(), "clean node {} persists", n);
                    }
                }
            }
        }
    }

    /// SpaceSaving: estimates never undercount, the count-minus-error lower
    /// bound never overcounts, and any item above total/capacity is tracked.
    #[test]
    fn spacesaving_guarantees(
        items in prop::collection::vec((0u32..64, 1u64..1_000), 1..300),
        capacity in 4usize..32,
    ) {
        let mut ss = SpaceSaving::new(capacity);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for (item, w) in &items {
            ss.insert(*item, *w);
            *truth.entry(*item).or_default() += w;
        }
        let total = ss.total();
        let tracked = ss.top(capacity);
        for e in &tracked {
            let true_w = truth.get(&e.item).copied().unwrap_or(0);
            prop_assert!(e.count >= true_w, "estimate below truth for {}", e.item);
            prop_assert!(
                e.count - e.error <= true_w,
                "lower bound violated for {}",
                e.item
            );
        }
        // Guarantee: every item with weight > total/capacity is tracked.
        let threshold = total / capacity as u64;
        for (item, &w) in &truth {
            if w > threshold {
                prop_assert!(
                    tracked.iter().any(|e| e.item == *item),
                    "heavy item {item} (w={w} > {threshold}) must be tracked"
                );
            }
        }
    }
}

/// Everything observable about one window's graph: its start, its nodes,
/// and every edge from both ends with its oriented stats and service ports.
type Fingerprint = (u64, Vec<NodeId>, Vec<Vec<(u32, EdgeStats, Vec<u16>)>>);

fn fingerprint(g: &CommGraph) -> Fingerprint {
    let edges = |i| g.neighbors(i).iter().map(move |e| (e.node, e.stats, g.ports(i, e).to_vec()));
    let adj = (0..g.node_count() as u32).map(|i| edges(i).collect()).collect();
    (g.window_start(), g.nodes().to_vec(), adj)
}

/// Seed sweep: random subscriptions × windows × interleavings × batch sizes
/// × shard counts × vantage dedup on/off through `ShardedEngine` ≡ one
/// `GraphBuilder` per `(subscription, window)` over the records the window
/// rule admits, by full fingerprint (service ports included), with
/// `records_in = records_kept +
/// vantage-deduped + records_late` per report. Two arms per seed: the
/// timestamps spread uniformly over every window, so many records are late;
/// or sorted and each jittered back by less than one window, so none is,
/// and the output is one builder per window over every record.
#[test]
fn sharded_engine_equals_one_builder_per_subscription_window() {
    let mut late = 0;
    for seed in 0..64u64 {
        late += sharded_sweep_case(seed, false);
        assert_eq!(sharded_sweep_case(seed, true), 0, "seed {seed}: in order, nothing is late");
    }
    assert!(late > 250_000, "thin sweep: only {late} late records");
}

/// One seed of the shard sweep; returns the records the rule found late.
fn sharded_sweep_case(seed: u64, in_order: bool) -> u64 {
    const WINDOW: u64 = 600;
    const BATCHES: [usize; 7] = [0, 1, 7, 4095, 4096, 4097, 20_000];
    let mut rng = StdRng::seed_from_u64(seed);
    let shards = [1, 2, 3, 8][seed as usize % 4];
    let dedup = seed % 8 >= 4;
    let subs = rng.random_range(1..7usize);
    let windows = rng.random_range(1..5u64);
    // Per-subscription streams: a small address pool (so edges repeat),
    // timestamps spread across windows, a third of the flows also reported
    // from the peer's vantage. The first subscription carries enough for
    // the 20 000-record batch; others may be empty.
    let streams: Vec<Vec<ConnSummary>> = (0..subs)
        .map(|s| {
            let flows = if s == 0 { 16_000..20_000 } else { 0..5_000usize };
            let mut out = Vec::new();
            for _ in 0..rng.random_range(flows) {
                let (l, r) = (rng.random_range(0..40u32), rng.random_range(0..40u32));
                let mut rec = ConnSummary {
                    ts: rng.random_range(0..windows * WINDOW),
                    key: FlowKey::tcp(
                        Ipv4Addr::new(10, s as u8, 0, l as u8),
                        rng.random_range(1024..1030u16),
                        Ipv4Addr::new(10, s as u8, 1, r as u8),
                        443,
                    ),
                    pkts_sent: rng.random_range(1..9u64),
                    pkts_rcvd: rng.random_range(0..9u64),
                    bytes_sent: rng.random_range(0..90_000u64),
                    bytes_rcvd: rng.random_range(0..9_000u64),
                };
                // The service is 443 or the local port: edges carry several,
                // through tables the shards recycle from window to window.
                rec.key.remote_port = [443, 40_000, 8080][(rec.bytes_sent % 3) as usize];
                out.push(rec);
                if rng.random_bool(0.3) {
                    out.push(rec.mirrored());
                }
            }
            if in_order {
                out.sort_by_key(|r| r.ts);
                for r in &mut out {
                    r.ts = r.ts.saturating_sub(rng.random_range(0..WINDOW));
                }
            }
            out
        })
        .collect();
    let monitored: Option<HashSet<Ipv4Addr>> = dedup.then(|| {
        streams.iter().flatten().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect()
    });

    let mut front = ShardedEngine::new(ShardedConfig {
        shards,
        window_len: WINDOW,
        monitored: monitored.clone(),
        ..Default::default()
    })
    .expect("valid");
    let shared = Inventory::from(monitored.unwrap_or_default());
    let mut reference: BTreeMap<(usize, u64), GraphBuilder> = BTreeMap::new();
    let (mut offered, mut late, mut newest) = (vec![0u64; subs], vec![0u64; subs], vec![0; subs]);
    let mut at = vec![0usize; subs];
    let mut call = rng.random_range(0..BATCHES.len());
    // Interleave: each call takes the next batch size from a random
    // subscription's stream, until every stream is drained.
    while (0..subs).any(|s| at[s] < streams[s].len()) {
        let s = rng.random_range(0..subs);
        let end = (at[s] + BATCHES[call % BATCHES.len()]).min(streams[s].len());
        let batch = &streams[s][at[s]..end];
        front.ingest(&format!("sub-{s}"), batch).expect("ingest");
        for r in batch {
            // The rule, written out: a record is late iff its window is more
            // than one window behind the newest its subscription opened.
            let w = bucket_start(r.ts, WINDOW);
            newest[s] = w.max(newest[s]);
            if w + WINDOW < newest[s] {
                late[s] += 1;
                continue;
            }
            reference
                .entry((s, w))
                .or_insert_with(|| {
                    GraphBuilder::new(Facet::Ip, w, WINDOW).with_monitored(shared.clone())
                })
                .add(r);
        }
        offered[s] += batch.len() as u64;
        at[s] = end;
        call += 1;
    }
    let (reports, totals) = front.finish().expect("drain");

    let case =
        format!("seed {seed}: {shards} shards, dedup {dedup}, {subs} subs, in order {in_order}");
    assert_eq!(totals.shards, shards, "{case}");
    assert_eq!(totals.records_in, offered.iter().sum::<u64>(), "{case}");
    let mut expected: BTreeMap<usize, (Vec<Fingerprint>, u64, u64)> = BTreeMap::new();
    for ((s, _), b) in reference {
        let (seen, kept) = b.record_counts();
        let e = expected.entry(s).or_default();
        e.1 += kept;
        e.2 += seen - kept;
        e.0.push(fingerprint(&b.finish()));
    }
    for report in &reports {
        let s: usize = report.subscription["sub-".len()..].parse().expect("sub-N");
        let (graphs, kept, deduped) = expected.remove(&s).unwrap_or_default();
        let got: Vec<Fingerprint> = report.graphs.iter().map(fingerprint).collect();
        assert_eq!(got, graphs, "{case}: {}", report.subscription);
        let stats = &report.stats;
        assert_eq!(stats.records_in, offered[s], "{case}");
        assert_eq!((stats.records_kept, stats.records_late), (kept, late[s]), "{case}");
        assert_eq!(stats.records_in, stats.records_kept + deduped + stats.records_late, "{case}");
        if !dedup {
            assert_eq!(deduped, 0, "{case}");
        }
    }
    assert!(expected.is_empty(), "{case}: subscriptions without a report: {expected:?}");
    late.iter().sum()
}

/// Thread count is the shard count, whatever the subscription count: every
/// shard thread registers its own `worker`-labeled busy-time series and
/// sets its own `shard`-labeled gauge as it exits, so those series count
/// the threads that ever ran.
#[test]
fn two_hundred_subscriptions_spawn_exactly_shards_threads() {
    let registry = Arc::new(obs::Registry::new());
    let cfg = ShardedConfig { obs: obs::Obs::new(registry.clone()), ..Default::default() };
    let shards = cfg.shards;
    let mut front = ShardedEngine::new(cfg).expect("valid");
    let rec = |i: u8| ConnSummary {
        ts: 0,
        key: FlowKey::tcp(Ipv4Addr::new(10, 0, 0, i), 40_000, Ipv4Addr::new(10, 0, 1, i), 443),
        pkts_sent: 1,
        pkts_rcvd: 1,
        bytes_sent: 10,
        bytes_rcvd: 10,
    };
    for s in 0..200u8 {
        front.ingest(&format!("sub-{s:03}"), &[rec(s), rec(s.wrapping_add(1))]).expect("ingest");
    }
    assert_eq!(front.subscription_count(), 200);
    let (reports, totals) = front.finish().expect("drain");
    assert_eq!(reports.len(), 200);
    assert!(reports.iter().all(|r| r.graphs.len() == 1 && r.stats.records_in == 2));
    assert_eq!(totals.shards, shards, "threads spawned and joined");
    let snapshot = registry.snapshot();
    let series = |family: &str| snapshot.iter().filter(|m| m.name == family).count();
    assert_eq!(series("commgraph_engine_worker_busy_seconds"), shards, "threads started");
    assert_eq!(series("commgraph_engine_shard_edge_entries"), shards, "threads exited");
}
