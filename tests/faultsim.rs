//! Distributed-failure simulation contracts, end to end: `cloudsim::net`
//! delivering into the sharded analytics front door and the core pipeline.
//!
//! Every test here runs its scenario **twice with the same seed** and
//! asserts byte-identical outcomes — the fault simulator's whole value is
//! that a failure is replayable. The clean-network run is additionally
//! pinned to be bit-identical to direct in-process ingest, and each shipped
//! fault script (crash + restart, delayed flush, duplicate delivery, clock
//! skew, partition/heal) asserts its *exact* late-record, dedup-drop,
//! watermark-lag, and alert-transition outcomes.

use commgraph::analytics::sharded::{ShardedConfig, ShardedEngine};
use commgraph::cloudsim::net::{scripts, Delivery, FaultScript, NetConfig, NetSim, NetStats};
use commgraph::cloudsim::{ClusterPreset, Simulator};
use commgraph::flowlog::record::{ConnSummary, FlowKey};
use commgraph::graph::{CommGraph, EdgeStats, NodeId};
use commgraph::obs::{self, names};
use commgraph::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Arc;

const WINDOW_LEN: u64 = 3600;

/// Per-window structural identity: window start, nodes, sorted edges with
/// their stats and service ports.
type Fingerprint = Vec<(u64, Vec<NodeId>, Vec<(u32, u32, EdgeStats, Vec<u16>)>)>;

fn fingerprint(graphs: &[CommGraph]) -> Fingerprint {
    graphs
        .iter()
        .map(|g| {
            let mut edges = Vec::new();
            for i in 0..g.node_count() as u32 {
                for e in g.neighbors(i) {
                    if i <= e.node {
                        edges.push((i, e.node, e.stats, g.ports(i, e).to_vec()));
                    }
                }
            }
            edges.sort_by_key(|&(i, j, ..)| (i, j));
            (g.window_start(), g.nodes().to_vec(), edges)
        })
        .collect()
}

/// Everything a run produced.
type RunResult = Vec<(String, u64, u64, usize, Fingerprint)>;

fn finish(front: ShardedEngine) -> RunResult {
    let (reports, _) = front.finish().expect("front door finishes");
    reports
        .into_iter()
        .map(|r| {
            (
                r.subscription,
                r.stats.records_in,
                r.stats.records_kept,
                r.stats.edge_entries,
                fingerprint(&r.graphs),
            )
        })
        .collect()
}

/// Finish `pipeline`, asserting record conservation on the way out: every
/// ingested record was kept, deduped or dropped, and the graphs hold
/// exactly the kept ones.
fn finish_pipeline(pipeline: Pipeline) -> PipelineOutput {
    let out = pipeline.finish().expect("pipeline finishes");
    assert_eq!(out.total_records, out.kept_records + out.deduped_records + out.dropped_records);
    let in_graphs: u64 = out.sequence.graphs().iter().map(|g| g.totals().conns).sum();
    assert_eq!(out.kept_records, in_graphs);
    out
}

fn front_door() -> ShardedEngine {
    ShardedEngine::new(ShardedConfig { window_len: WINDOW_LEN, ..Default::default() })
        .expect("valid front-door config")
}

fn host(d: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, d)
}

/// One record reported by `h`'s vantage toward a shared server.
fn rec(h: Ipv4Addr, ts: u64) -> ConnSummary {
    ConnSummary {
        ts,
        key: FlowKey::tcp(h, 40_000, Ipv4Addr::new(10, 0, 9, 9), 443),
        pkts_sent: 4,
        pkts_rcvd: 3,
        bytes_sent: 900,
        bytes_rcvd: 120,
    }
}

/// Feed every delivery into the seam; returns records accepted vs deduped.
fn deliver_into(
    net: &mut NetSim,
    front: &mut ShardedEngine,
    ticks: u64,
    batch: impl Fn(u64) -> Vec<ConnSummary>,
) -> (u64, u64) {
    let (mut accepted, mut deduped) = (0u64, 0u64);
    let mut sink = |front: &mut ShardedEngine, d: &commgraph::cloudsim::net::Delivery| {
        let fresh = front
            .ingest_sequenced("tenant-a", &d.source.to_string(), d.seq, &d.records)
            .expect("seam ingest succeeds");
        if fresh {
            accepted += d.records.len() as u64;
        } else {
            deduped += d.records.len() as u64;
        }
    };
    for t in 0..ticks {
        net.offer(&batch(t));
        net.step(|d| sink(front, d));
    }
    net.drain(|d| sink(front, d));
    (accepted, deduped)
}

/// A clean network must be invisible: routing a simulated workload through
/// per-host agents and the delivery fabric yields per-subscription reports
/// bit-identical to handing the same batches straight to the engine.
#[test]
fn clean_network_is_bit_identical_to_direct_ingest() {
    let preset = ClusterPreset::MicroserviceBench;
    let minutes = 6;
    let simulator = || {
        Simulator::new(preset.topology_scaled(0.1), preset.default_sim_config())
            .expect("valid preset")
    };

    let mut direct_front = front_door();
    simulator().run(minutes, |_, batch| {
        direct_front.ingest("tenant-a", batch).expect("direct ingest succeeds");
    });

    let mut net = NetSim::new(NetConfig::clean(), FaultScript::new()).expect("valid net config");
    let mut net_front = front_door();
    let mut batches = Vec::new();
    simulator().run(minutes, |_, batch| batches.push(batch.to_vec()));
    let (accepted, deduped) =
        deliver_into(&mut net, &mut net_front, minutes, |t| batches[t as usize].clone());

    let stats = net.stats().clone();
    assert_eq!(stats.offered_records, stats.delivered_records, "a clean network loses nothing");
    assert_eq!(stats.dropped_packets, 0);
    assert_eq!(stats.duplicated_packets, 0);
    assert_eq!(stats.reordered_packets, 0);
    assert_eq!(accepted, stats.offered_records);
    assert_eq!(deduped, 0, "nothing to dedup on a clean network");
    assert_eq!(finish(net_front), finish(direct_front), "delivery fabric is invisible when clean");
}

/// Crash losing the buffer: the exact unflushed + offered-while-down records
/// are lost, everything else arrives, and two same-seed runs agree byte for
/// byte.
#[test]
fn crash_lose_drops_exactly_the_unflushed_records() {
    let run = || {
        let cfg = NetConfig { flush_every: 2, ..NetConfig::clean() };
        let mut net = NetSim::new(cfg, scripts::crash_lose(host(1), 2)).expect("valid net config");
        let mut front = front_door();
        let counts = deliver_into(&mut net, &mut front, 8, |t| {
            vec![rec(host(1), t * 60), rec(host(3), t * 60)]
        });
        (net.stats().clone(), counts, finish(front))
    };
    let (stats, (accepted, deduped), reports) = run();
    // Host 1 flushes tick 0; the crash at tick 2 eats its tick-1 and tick-2
    // buffer; tick 3's offer lands on a dead agent; it restarts at tick 4.
    assert_eq!(stats.lost_at_agent_records, 3, "buffer of 2 plus 1 offered while down");
    assert_eq!(stats.delivered_records, 13, "16 offered minus the 3 lost");
    assert_eq!(stats.replayed_packets, 0, "lose-mode restart re-sends nothing");
    assert_eq!(accepted, 13);
    assert_eq!(deduped, 0);
    assert_eq!(run(), (stats, (accepted, deduped), reports), "same seed, same bytes");
}

/// Crash with replay: the restarted agent re-sends its last flushed packet,
/// the seam's sequence dedup discards exactly that packet, and the reports
/// equal the lose-mode run (the surviving record multiset is identical).
#[test]
fn crash_replay_is_discarded_by_the_seam_dedup() {
    let cfg = NetConfig { flush_every: 2, ..NetConfig::clean() };
    let batch = |t: u64| vec![rec(host(1), t * 60), rec(host(3), t * 60)];

    let mut lose_net =
        NetSim::new(cfg.clone(), scripts::crash_lose(host(1), 2)).expect("valid net config");
    let mut lose_front = front_door();
    deliver_into(&mut lose_net, &mut lose_front, 8, batch);

    let run = || {
        let mut net =
            NetSim::new(cfg.clone(), scripts::crash_replay(host(1), 2)).expect("valid net config");
        let mut front = front_door();
        let counts = deliver_into(&mut net, &mut front, 8, batch);
        (net.stats().clone(), counts, finish(front))
    };
    let (stats, (accepted, deduped), reports) = run();
    assert_eq!(stats.replayed_packets, 1, "exactly the last flush is re-sent");
    assert_eq!(stats.delivered_records, 14, "13 surviving records plus the 1-record replay");
    assert_eq!(accepted, 13);
    assert_eq!(deduped, 1, "the seam discards the whole replayed packet");
    assert_eq!(reports, finish(lose_front), "replay is invisible past the dedup seam");
    assert_eq!(run(), (stats, (accepted, deduped), reports), "same seed, same bytes");
}

/// Delayed flush: holding one host's flushes across two window boundaries
/// produces an exact roll-lag alert firing sequence, exactly one late
/// record, and exactly one dropped-behind-window record at the core
/// pipeline — twice, byte-identically.
#[test]
fn delayed_flush_asserts_lateness_and_alert_transitions() {
    type Outcome = (Vec<(u64, String, String)>, u64, u64, u64, NetStats, RunResult);
    let run = || -> Outcome {
        let registry = Arc::new(obs::Registry::new());
        let o = obs::Obs::new(registry.clone());
        let store = Arc::new(obs::Tsdb::new(obs::TsdbConfig::default()));
        let scraper = obs::Scraper::new(registry.clone(), store.clone());
        let alerts = obs::AlertEngine::new(o.clone());
        alerts.add_rule(
            obs::AlertRule::query(
                "subscription_roll_lag_high",
                "commgraph_subscription_roll_lag_seconds{subscription=\"tenant-a\"} > 600",
            )
            .expect("roll-lag expression parses")
            .with_for_ticks(1),
        );

        let mut front = ShardedEngine::new(ShardedConfig {
            obs: o.clone(),
            window_len: WINDOW_LEN,
            ..Default::default()
        })
        .expect("valid front-door config");
        let mut pipeline = Pipeline::new(PipelineConfig {
            obs: o.clone(),
            window_len: WINDOW_LEN,
            ..Default::default()
        });

        // One window per tick. Host 1 normally opens each window 10 s in,
        // host 3 lands 1 200 s in; the script stalls host 1 over windows 3-4,
        // so those windows are opened by host 3's late-in-window record.
        let script = FaultScript::parse("at 3 delay 10.0.0.1 for 2").expect("valid script");
        let mut net = NetSim::new(NetConfig::clean(), script).expect("valid net config");
        for t in 0..8u64 {
            net.offer(&[rec(host(1), t * WINDOW_LEN + 10), rec(host(3), t * WINDOW_LEN + 1200)]);
            net.step(|d| {
                front
                    .ingest_sequenced("tenant-a", &d.source.to_string(), d.seq, &d.records)
                    .expect("seam ingest succeeds");
                pipeline.ingest(&d.records);
            });
            scraper.scrape(t + 1);
            alerts.evaluate(t + 1, &store);
        }
        net.drain(|_| {});

        let transitions = alerts
            .history()
            .into_iter()
            .map(|t| (t.tick, t.from.as_str().to_string(), t.to.as_str().to_string()))
            .collect();
        let late = registry.counter(&names::PIPELINE_LATE_RECORDS_TOTAL, []).get();
        let dropped = registry.counter(&names::PIPELINE_DROPPED_LATE_RECORDS_TOTAL, []).get();
        let out = finish_pipeline(pipeline);
        (transitions, late, dropped, out.total_records, net.stats().clone(), finish(front))
    };

    let (transitions, late, dropped, total, stats, reports) = run();
    let t = |tick, from: &str, to: &str| (tick, from.to_string(), to.to_string());
    assert_eq!(
        transitions,
        vec![
            t(4, "inactive", "pending"),
            t(5, "pending", "firing"),
            t(6, "firing", "resolved"),
            t(7, "resolved", "inactive"),
        ],
        "the exact roll-lag firing sequence of the stalled host"
    );
    // The backlog flushes at tick 5: the window-3 record is behind the
    // by-then-current window 4 (a drop), the window-4 record is merely
    // behind the watermark (late), the window-5 record is on time.
    assert_eq!(late, 1, "exactly the backlog record whose window is still open");
    assert_eq!(dropped, 1, "exactly the backlog record whose window already closed");
    assert_eq!(total, 16, "a stall delays records, it never loses them");
    assert_eq!(stats.delivered_records, stats.offered_records);
    assert_eq!(run(), (transitions, late, dropped, total, stats, reports), "same seed, same bytes");
}

/// Duplicate delivery at rate 1.0: every packet arrives twice, the seam
/// discards exactly half the delivered records, and the reports equal a
/// clean run's.
#[test]
fn duplicate_delivery_is_invisible_through_the_seam() {
    let batch = |t: u64| vec![rec(host(1), t * 60), rec(host(3), t * 60)];

    let mut clean_net =
        NetSim::new(NetConfig::clean(), FaultScript::new()).expect("valid net config");
    let mut clean_front = front_door();
    deliver_into(&mut clean_net, &mut clean_front, 8, batch);

    let run = || {
        let cfg = NetConfig { duplicate_rate: 1.0, ..NetConfig::clean() };
        let mut net = NetSim::new(cfg, FaultScript::new()).expect("valid net config");
        let mut front = front_door();
        let counts = deliver_into(&mut net, &mut front, 8, batch);
        (net.stats().clone(), counts, finish(front))
    };
    let (stats, (accepted, deduped), reports) = run();
    assert_eq!(stats.duplicated_packets, 16, "every one of the 16 flushes is doubled");
    assert_eq!(stats.delivered_records, 32);
    assert_eq!(accepted, 16);
    assert_eq!(deduped, 16, "the seam discards exactly the duplicate copies");
    assert_eq!(reports, finish(clean_front), "duplication is invisible past the seam");
    assert_eq!(run(), (stats, (accepted, deduped), reports), "same seed, same bytes");
}

/// Clock skew: a host whose clock falls one full window behind produces
/// records whose windows have already closed — counted as dropped-late by
/// the core pipeline, never as merely late, in exact numbers.
#[test]
fn clock_skew_drops_exactly_the_behind_window_records() {
    let run = || {
        let registry = Arc::new(obs::Registry::new());
        let o = obs::Obs::new(registry.clone());
        let mut pipeline =
            Pipeline::new(PipelineConfig { obs: o, window_len: WINDOW_LEN, ..Default::default() });
        // Skew at tick 6: window 1 (3600 s) is already open, so every
        // post-skew offer from host 1 lands a full window in the past.
        let script = FaultScript::parse("at 6 skew 10.0.0.1 -3600").expect("valid script");
        let mut net = NetSim::new(NetConfig::clean(), script).expect("valid net config");
        for t in 0..12u64 {
            net.offer(&[rec(host(1), t * 600), rec(host(3), t * 600)]);
            net.step(|d| pipeline.ingest(&d.records));
        }
        net.drain(|_| {});
        let late = registry.counter(&names::PIPELINE_LATE_RECORDS_TOTAL, []).get();
        let dropped = registry.counter(&names::PIPELINE_DROPPED_LATE_RECORDS_TOTAL, []).get();
        let out = finish_pipeline(pipeline);
        let shape: Vec<(u64, usize)> =
            out.sequence.graphs().iter().map(|g| (g.window_start(), g.node_count())).collect();
        (late, dropped, out.total_records, shape, net.stats().clone())
    };
    let (late, dropped, total, shape, stats) = run();
    // Skew lands at tick 6 (offers at tick 6 precede it), so ticks 7-11 put
    // host 1's records a full window in the past while host 3 keeps the
    // current window open.
    assert_eq!(dropped, 5, "every post-skew record of host 1 is behind the closed window");
    assert_eq!(late, 0, "a behind-window drop is never double-counted as late");
    assert_eq!(total, 24);
    assert_eq!(stats.delivered_records, stats.offered_records, "skew rewrites, it never loses");
    assert_eq!(run(), (late, dropped, total, shape, stats), "same seed, same bytes");
}

/// Partition/heal: partitioned hosts hold their flushes and release the
/// whole backlog on heal — nothing is lost, and the reports equal a clean
/// run's because the surviving multiset is identical.
#[test]
fn partition_heals_without_losing_records() {
    let batch = |t: u64| vec![rec(host(1), t * 60), rec(host(3), t * 60), rec(host(5), t * 60)];

    let mut clean_net =
        NetSim::new(NetConfig::clean(), FaultScript::new()).expect("valid net config");
    let mut clean_front = front_door();
    deliver_into(&mut clean_net, &mut clean_front, 8, batch);

    let run = || {
        let script =
            FaultScript::parse("at 1 partition 10.0.0.1,10.0.0.3 for 3").expect("valid script");
        let mut net = NetSim::new(NetConfig::clean(), script).expect("valid net config");
        let mut front = front_door();
        let counts = deliver_into(&mut net, &mut front, 8, batch);
        (net.stats().clone(), counts, finish(front))
    };
    let (stats, (accepted, deduped), reports) = run();
    assert_eq!(stats.delivered_records, stats.offered_records, "a partition delays, never loses");
    assert_eq!(stats.lost_at_agent_records, 0);
    assert_eq!(accepted, 24);
    assert_eq!(deduped, 0);
    assert_eq!(reports, finish(clean_front), "healed partition is invisible in the reports");
    assert_eq!(run(), (stats, (accepted, deduped), reports), "same seed, same bytes");
}

/// A workload whose flows vary across ticks, so graphs are shape-sensitive:
/// subscription `s`'s records at tick `t`. Every subscription reports from
/// the same three hosts, so under the same source names, toward its own
/// servers.
fn property_batch(s: u8, t: u64) -> Vec<ConnSummary> {
    (1u8..=3)
        .map(|h| ConnSummary {
            ts: t * 300,
            key: FlowKey::tcp(host(h), 40_000 + t as u16, Ipv4Addr::new(10, s, 9, h), 443),
            pkts_sent: 2 + t,
            pkts_rcvd: 1,
            bytes_sent: 1_000 + 13 * t + u64::from(s),
            bytes_rcvd: 77,
        })
        .collect()
}

fn sharded_at(shards: usize) -> ShardedEngine {
    ShardedEngine::new(ShardedConfig { shards, window_len: WINDOW_LEN, ..Default::default() })
        .expect("valid front-door config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Delivery equivalence: for any lossy, duplicating, reordering network,
    /// the seam-deduped reports equal an in-order, single-delivery ingest of
    /// the surviving record multiset — at 1, 2, and 4 shards alike.
    #[test]
    fn lossy_delivery_is_equivalent_to_in_order_ingest_of_survivors(
        seed in 0u64..500,
        drop_rate in 0.0f64..0.6,
        duplicate_rate in 0.0f64..0.6,
        latency_lo in 0u64..3,
        latency_spread in 0u64..4,
        flush_every in 1u64..4,
    ) {
        let cfg = NetConfig {
            seed,
            latency_ticks: (latency_lo, latency_lo + latency_spread),
            drop_rate,
            duplicate_rate,
            flush_every,
        };
        let mut net = NetSim::new(cfg, FaultScript::new()).expect("valid net config");
        let mut lossy: Vec<ShardedEngine> = [1, 2, 4].map(sharded_at).into_iter().collect();
        let mut survivors: Vec<(Ipv4Addr, u64, Vec<ConnSummary>)> = Vec::new();
        let sink = |lossy: &mut Vec<ShardedEngine>,
                        survivors: &mut Vec<(Ipv4Addr, u64, Vec<ConnSummary>)>,
                        d: &commgraph::cloudsim::net::Delivery| {
            let fresh: Vec<bool> = lossy
                .iter_mut()
                .map(|f| {
                    f.ingest_sequenced("tenant-a", &d.source.to_string(), d.seq, &d.records)
                        .expect("seam ingest succeeds")
                })
                .collect();
            assert!(fresh.iter().all(|&f| f == fresh[0]), "dedup verdicts agree across shards");
            if fresh[0] {
                survivors.push((d.source, d.seq, d.records.clone()));
            }
        };
        for t in 0..12u64 {
            net.offer(&property_batch(0, t));
            net.step(|d| sink(&mut lossy, &mut survivors, d));
        }
        net.drain(|d| sink(&mut lossy, &mut survivors, d));

        // The oracle: the surviving batches, re-delivered once each in
        // per-source send order, through the plain (unsequenced) door.
        survivors.sort_by_key(|s| (s.0, s.1));
        for (shards, lossy_front) in [1usize, 2, 4].into_iter().zip(lossy) {
            let mut oracle = sharded_at(shards);
            for (_, _, records) in &survivors {
                oracle.ingest("tenant-a", records).expect("oracle ingest succeeds");
            }
            prop_assert_eq!(
                finish(lossy_front),
                finish(oracle),
                "shard count {} diverged from in-order ingest",
                shards
            );
        }
    }
}

/// Delivery equivalence across tenants: 1–5 subscriptions whose agents share
/// source names, each behind its own seeded reordering, duplicating, lossy
/// network, their deliveries interleaved into one front door at 1, 2 and 3
/// shards (so residents sit unevenly on the shards). Per subscription, the
/// verdicts agree across shard counts, exactly the re-deliveries are refused,
/// and the reports equal an in-order ingest of the survivors.
#[test]
fn interleaved_tenants_sharing_source_names_dedup_independently() {
    let (mut redelivered_total, mut reordered_total) = (0u64, 0u64);
    for seed in 0..32u64 {
        let subs = 1 + (seed % 5) as u8;
        let names: Vec<String> = (0..subs).map(|s| format!("tenant-{s}")).collect();
        let mut nets: Vec<NetSim> = (0..u64::from(subs))
            .map(|s| {
                let cfg = NetConfig {
                    seed: seed * 8 + s,
                    latency_ticks: (s % 2, s % 2 + 2 + seed % 3),
                    drop_rate: 0.05 * (1 + (seed + s) % 4) as f64,
                    duplicate_rate: 0.1 * (1 + (seed * 3 + s) % 4) as f64,
                    flush_every: 1 + (seed + s) % 2,
                };
                NetSim::new(cfg, FaultScript::new()).expect("valid net config")
            })
            .collect();
        let mut lossy: Vec<ShardedEngine> = [1, 2, 3].map(sharded_at).into_iter().collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut survivors = vec![Vec::new(); subs.into()];
        let mut refused = vec![0u64; subs.into()];
        // Sixteen ticks (two windows), then the drain; each round's
        // deliveries are dealt round-robin across subscriptions.
        for tick in (0..16u64).map(Some).chain([None]) {
            let mut due: Vec<Vec<Delivery>> = Vec::new();
            for (s, net) in nets.iter_mut().enumerate() {
                let mut arrived = Vec::new();
                match tick {
                    Some(t) => {
                        net.offer(&property_batch(s as u8, t));
                        net.step(|d| arrived.push(d.clone()));
                    }
                    None => net.drain(|d| arrived.push(d.clone())),
                }
                due.push(arrived);
            }
            for k in 0..due.iter().map(Vec::len).max().unwrap_or(0) {
                for (s, d) in due.iter().enumerate().filter_map(|(s, v)| Some((s, v.get(k)?))) {
                    let source = d.source.to_string();
                    let fresh: Vec<bool> = lossy
                        .iter_mut()
                        .map(|f| {
                            f.ingest_sequenced(&names[s], &source, d.seq, &d.records)
                                .expect("seam ingest succeeds")
                        })
                        .collect();
                    assert!(fresh.iter().all(|&f| f == fresh[0]), "seed {seed}: verdicts differ");
                    let first = seen.insert((s, d.source, d.seq));
                    assert_eq!(fresh[0], first, "seed {seed}: {} seq {} of {s}", d.source, d.seq);
                    if first {
                        survivors[s].push((d.source, d.seq, d.records.clone()));
                    } else {
                        refused[s] += 1;
                    }
                }
            }
        }

        let mut oracle = sharded_at(1);
        for (s, net) in nets.iter().enumerate() {
            let stats = net.stats();
            let redeliveries = stats.duplicated_packets + stats.replayed_packets;
            assert_eq!(refused[s], redeliveries, "seed {seed}: refusals of {}", names[s]);
            redelivered_total += redeliveries;
            reordered_total += stats.reordered_packets;
            survivors[s].sort_by_key(|b| (b.0, b.1));
            for (_, _, records) in &survivors[s] {
                oracle.ingest(&names[s], records).expect("oracle ingest succeeds");
            }
        }
        let expected = finish(oracle);
        assert_eq!(expected.len(), usize::from(subs));
        for (shards, front) in [1, 2, 3].into_iter().zip(lossy) {
            assert_eq!(finish(front), expected, "seed {seed}: {shards} shards vs in-order");
        }
    }
    assert!(redelivered_total > 0 && reordered_total > 0, "the networks misbehaved");
}
