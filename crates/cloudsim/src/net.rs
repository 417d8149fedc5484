//! Deterministic distributed-delivery simulation: the adversarial network
//! between per-host telemetry agents and the analytics front door.
//!
//! The paper's pipeline implicitly assumes flow summaries arrive promptly
//! and exactly once; in a real public cloud they arrive late, duplicated,
//! reordered, or not at all. This module makes those failure modes *seeded
//! and replayable* so the streaming-health metrics become tested contracts:
//!
//! * a **logical clock** — [`NetSim::step`] advances one tick; nothing ever
//!   reads the wall clock, so identical seeds give byte-identical runs;
//! * **per-host agents** that buffer the records their vantage reported and
//!   flush them as sequence-numbered packets;
//! * a **simulated network** with configurable latency ranges, drop rates,
//!   and duplicate delivery (reordering falls out of latency jitter);
//! * **fault scripts** ([`FaultScript`]) scheduled on ticks: agent crash +
//!   restart (losing the unflushed buffer, optionally replaying the last
//!   flush), delayed flushes, per-agent clock skew, and network partitions.
//!
//! Deliveries carry `(source, seq)` so the receiving seam (the analytics
//! tier's `ingest_sequenced`) can discard re-deliveries exactly once; a
//! clean network ([`NetConfig::clean`]) delivers every record exactly once,
//! in order, with zero latency — bit-identical to direct in-process ingest.
//!
//! Everything iterates over `BTreeMap`s and draws randomness from one seeded
//! generator in a fixed order — the same determinism discipline as the
//! simulator itself.

use crate::error::{Error, Result};
use flowlog::record::ConnSummary;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Configuration of the simulated delivery network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Seed of the network's own randomness (latency jitter, drops,
    /// duplicates). Identical seeds give byte-identical runs.
    pub seed: u64,
    /// Inclusive `(min, max)` delivery latency in ticks. A spread of two or
    /// more ticks lets later flushes overtake earlier ones (reordering).
    pub latency_ticks: (u64, u64),
    /// Probability a flushed packet is lost in transit, in `[0, 1]`.
    pub drop_rate: f64,
    /// Probability a flushed packet is delivered twice, in `[0, 1]`.
    pub duplicate_rate: f64,
    /// Agents flush their buffer on ticks divisible by this cadence (≥ 1).
    pub flush_every: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            seed: 0x5EED,
            latency_ticks: (0, 2),
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            flush_every: 1,
        }
    }
}

impl NetConfig {
    /// The ideal network: zero latency, no loss, no duplication, flush
    /// every tick. A run over this config is bit-identical to direct
    /// in-process ingest (asserted by `tests/faultsim.rs`).
    pub fn clean() -> Self {
        NetConfig { latency_ticks: (0, 0), ..NetConfig::default() }
    }
}

/// What a crashing agent does with its delivery state on restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CrashMode {
    /// The unflushed buffer dies with the process; nothing is re-sent.
    LoseBuffer,
    /// The unflushed buffer still dies, but the agent conservatively
    /// re-sends its last flushed packet (same sequence number) on restart —
    /// the at-least-once pattern the receiving seam must dedup.
    ReplayLastFlush,
}

/// One scripted fault, applied at the start of its scheduled tick.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// `host`'s agent crashes for `down_ticks` ticks. Its unflushed buffer
    /// is lost, records offered while down are lost, and on restart it
    /// behaves per `mode`.
    Crash {
        /// The crashing agent's vantage address.
        host: Ipv4Addr,
        /// Ticks the agent stays down (restarts at `tick + down_ticks`).
        down_ticks: u64,
        /// Restart behavior.
        mode: CrashMode,
    },
    /// `host` keeps buffering but does not flush for `ticks` ticks — an
    /// upstream delivery stall. Everything arrives late afterwards.
    DelayFlush {
        /// The stalled agent's vantage address.
        host: Ipv4Addr,
        /// Ticks the flush is held back.
        ticks: u64,
    },
    /// `host`'s clock drifts: from this tick on, every record it buffers has
    /// `skew_secs` added to its timestamp (saturating at zero).
    SkewClock {
        /// The drifting agent's vantage address.
        host: Ipv4Addr,
        /// Signed drift in seconds.
        skew_secs: i64,
    },
    /// `hosts` are partitioned from the collector for `heal_after_ticks`
    /// ticks: they keep buffering and flush everything once healed.
    Partition {
        /// The partitioned vantage addresses.
        hosts: Vec<Ipv4Addr>,
        /// Ticks until the partition heals.
        heal_after_ticks: u64,
    },
}

/// A tick-keyed schedule of [`FaultEvent`]s.
///
/// Build programmatically with [`FaultScript::at`] or parse the text
/// grammar (statements separated by `;` or newlines, `#` comments):
///
/// ```text
/// at TICK crash HOST for N (lose|replay)
/// at TICK delay HOST for N
/// at TICK skew HOST SECS
/// at TICK partition HOST[,HOST...] for N
/// ```
///
/// ```
/// use cloudsim::net::FaultScript;
/// let s = FaultScript::parse("at 2 crash 10.0.0.1 for 3 replay; at 5 skew 10.0.0.2 -40").unwrap();
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    events: BTreeMap<u64, Vec<FaultEvent>>,
}

impl FaultScript {
    /// The empty script (a clean run).
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Schedule `event` at the start of `tick` (builder style). Events
    /// sharing a tick apply in insertion order.
    pub fn at(mut self, tick: u64, event: FaultEvent) -> Self {
        self.events.entry(tick).or_default().push(event);
        self
    }

    /// Total scheduled events.
    pub fn len(&self) -> usize {
        self.events.values().map(Vec::len).sum()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parse the text grammar documented on [`FaultScript`].
    pub fn parse(text: &str) -> Result<FaultScript> {
        let mut script = FaultScript::new();
        for raw in text.split(['\n', ';']) {
            let stmt = raw.split('#').next().unwrap_or("").trim();
            if stmt.is_empty() {
                continue;
            }
            let toks: Vec<&str> = stmt.split_whitespace().collect();
            let bad = |why: &str| Error::InvalidConfig(format!("fault script `{stmt}`: {why}"));
            if toks.first() != Some(&"at") {
                return Err(bad("statements start with `at TICK`"));
            }
            let tick: u64 = toks
                .get(1)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("expected a tick number after `at`"))?;
            let host = |i: usize| -> Result<Ipv4Addr> {
                toks.get(i)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("expected an IPv4 host address"))
            };
            let num = |i: usize, what: &str| -> Result<u64> {
                toks.get(i)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(&format!("expected {what}")))
            };
            let event = match toks.get(2).copied() {
                Some("crash") => {
                    if toks.get(4) != Some(&"for") {
                        return Err(bad("expected `for N` after the host"));
                    }
                    let mode = match toks.get(6).copied() {
                        Some("lose") => CrashMode::LoseBuffer,
                        Some("replay") => CrashMode::ReplayLastFlush,
                        _ => return Err(bad("crash ends with `lose` or `replay`")),
                    };
                    FaultEvent::Crash {
                        host: host(3)?,
                        down_ticks: num(5, "a down-tick count")?,
                        mode,
                    }
                }
                Some("delay") => {
                    if toks.get(4) != Some(&"for") {
                        return Err(bad("expected `for N` after the host"));
                    }
                    FaultEvent::DelayFlush { host: host(3)?, ticks: num(5, "a delay-tick count")? }
                }
                Some("skew") => {
                    let skew_secs: i64 = toks
                        .get(4)
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("expected signed seconds of skew"))?;
                    FaultEvent::SkewClock { host: host(3)?, skew_secs }
                }
                Some("partition") => {
                    let hosts: Option<Vec<Ipv4Addr>> = toks
                        .get(3)
                        .map(|list| list.split(',').map(|h| h.parse().ok()).collect())
                        .unwrap_or(None);
                    let hosts = hosts.ok_or_else(|| bad("expected a comma-separated host list"))?;
                    if toks.get(4) != Some(&"for") {
                        return Err(bad("expected `for N` after the host list"));
                    }
                    FaultEvent::Partition { hosts, heal_after_ticks: num(5, "a heal-tick count")? }
                }
                _ => return Err(bad("expected crash | delay | skew | partition")),
            };
            script = script.at(tick, event);
        }
        Ok(script)
    }
}

/// One packet handed to the receiving seam: a flush batch from one agent.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The reporting agent's vantage address.
    pub source: Ipv4Addr,
    /// The agent's monotone flush sequence number — re-deliveries repeat it.
    pub seq: u64,
    /// The flushed records.
    pub records: Vec<ConnSummary>,
}

/// Counters of everything the network did, for fault-script assertions and
/// the bench's `faultsim` section.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct NetStats {
    /// Ticks stepped.
    pub(crate) ticks: u64,
    /// Records offered to agents.
    pub offered_records: u64,
    /// Records lost at the agent (crashed buffer, or offered while down).
    pub lost_at_agent_records: u64,
    /// Packets flushed into the network (replays included).
    pub flushed_packets: u64,
    /// Records flushed into the network (replays included).
    pub(crate) flushed_records: u64,
    /// Packets the network lost in transit.
    pub dropped_packets: u64,
    /// Records inside packets the network lost.
    pub dropped_records: u64,
    /// Packets the network delivered twice.
    pub duplicated_packets: u64,
    /// Packets re-sent by restarting agents ([`CrashMode::ReplayLastFlush`]).
    pub replayed_packets: u64,
    /// Packets handed to the delivery callback.
    pub delivered_packets: u64,
    /// Records handed to the delivery callback.
    pub delivered_records: u64,
    /// Delivered packets that overtook a later flush of the same source
    /// (sequence number below that source's delivered high-water mark).
    pub reordered_packets: u64,
}

/// Per-host agent state.
#[derive(Debug, Default)]
struct Agent {
    buffer: Vec<ConnSummary>,
    next_seq: u64,
    skew_secs: i64,
    down_until: Option<u64>,
    delay_until: Option<u64>,
    partition_until: Option<u64>,
    last_flush: Option<(u64, Vec<ConnSummary>)>,
    replay_pending: bool,
}

impl Agent {
    fn is_down(&self, tick: u64) -> bool {
        self.down_until.is_some_and(|t| t > tick)
    }

    fn can_flush(&self, tick: u64) -> bool {
        !self.is_down(tick)
            && self.delay_until.is_none_or(|t| t <= tick)
            && self.partition_until.is_none_or(|t| t <= tick)
    }
}

/// A packet in transit.
#[derive(Debug)]
struct Flight {
    source: Ipv4Addr,
    seq: u64,
    records: Vec<ConnSummary>,
}

/// The seeded network simulation. Offer each tick's records with
/// [`NetSim::offer`], advance with [`NetSim::step`], and flush the tail
/// with [`NetSim::drain`].
#[derive(Debug)]
pub struct NetSim {
    cfg: NetConfig,
    script: FaultScript,
    tick: u64,
    next_msg: u64,
    agents: BTreeMap<Ipv4Addr, Agent>,
    /// In-transit packets keyed by `(deliver_tick, msg_id)`: within a tick,
    /// earlier sends deliver first, so reordering needs latency jitter.
    in_flight: BTreeMap<(u64, u64), Flight>,
    /// Per-source high-water delivered sequence number (reorder detection).
    delivered_seq: BTreeMap<Ipv4Addr, u64>,
    rng: StdRng,
    stats: NetStats,
}

impl NetSim {
    /// Validate the config and set up an idle network at tick zero.
    pub fn new(cfg: NetConfig, script: FaultScript) -> Result<Self> {
        if !(0.0..=1.0).contains(&cfg.drop_rate) {
            return Err(Error::InvalidConfig(format!("drop_rate {} not in [0, 1]", cfg.drop_rate)));
        }
        if !(0.0..=1.0).contains(&cfg.duplicate_rate) {
            return Err(Error::InvalidConfig(format!(
                "duplicate_rate {} not in [0, 1]",
                cfg.duplicate_rate
            )));
        }
        if cfg.flush_every == 0 {
            return Err(Error::InvalidConfig("flush_every must be at least 1".into()));
        }
        if cfg.latency_ticks.0 > cfg.latency_ticks.1 {
            return Err(Error::InvalidConfig(format!(
                "latency range ({}, {}) is inverted",
                cfg.latency_ticks.0, cfg.latency_ticks.1
            )));
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        Ok(NetSim {
            cfg,
            script,
            tick: 0,
            next_msg: 0,
            agents: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            delivered_seq: BTreeMap::new(),
            rng,
            stats: NetStats::default(),
        })
    }

    /// The network's counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Offer records to their reporting agents (routed by the record's
    /// local/vantage address). Records offered to a crashed agent are lost.
    pub fn offer(&mut self, records: &[ConnSummary]) {
        let tick = self.tick;
        for r in records {
            self.stats.offered_records += 1;
            let agent = self.agents.entry(r.key.local_ip).or_default();
            if agent.is_down(tick) {
                self.stats.lost_at_agent_records += 1;
                continue;
            }
            let mut rec = *r;
            if agent.skew_secs != 0 {
                rec.ts = rec.ts.saturating_add_signed(agent.skew_secs);
            }
            agent.buffer.push(rec);
        }
    }

    /// Advance one tick: apply scripted faults, restart expired crashes
    /// (queueing replays), flush due agents, then deliver every in-flight
    /// packet whose latency elapsed, handing each to `deliver`.
    pub fn step(&mut self, mut deliver: impl FnMut(&Delivery)) {
        let tick = self.tick;
        // 1. Scripted faults for this tick.
        for event in self.script.events.remove(&tick).unwrap_or_default() {
            self.apply(tick, event);
        }
        // 2. Restarts: outage expired ⇒ the agent is back; a replaying
        //    agent conservatively re-sends its last flushed packet.
        let restarted: Vec<Ipv4Addr> = self
            .agents
            .iter()
            .filter(|(_, a)| a.down_until.is_some_and(|t| t <= tick))
            .map(|(ip, _)| *ip)
            .collect();
        for ip in restarted {
            let Some(agent) = self.agents.get_mut(&ip) else { continue };
            agent.down_until = None;
            let replay = if agent.replay_pending { agent.last_flush.clone() } else { None };
            agent.replay_pending = false;
            if let Some((seq, records)) = replay {
                self.stats.replayed_packets += 1;
                self.send(tick, ip, seq, records);
            }
        }
        // 3. Flushes, in address order.
        if tick.is_multiple_of(self.cfg.flush_every) {
            let due: Vec<Ipv4Addr> = self
                .agents
                .iter()
                .filter(|(_, a)| !a.buffer.is_empty() && a.can_flush(tick))
                .map(|(ip, _)| *ip)
                .collect();
            for ip in due {
                let Some(agent) = self.agents.get_mut(&ip) else { continue };
                let records = std::mem::take(&mut agent.buffer);
                let seq = agent.next_seq;
                agent.next_seq += 1;
                agent.last_flush = Some((seq, records.clone()));
                self.send(tick, ip, seq, records);
            }
        }
        // 4. Deliveries due this tick, in (deliver_tick, send order).
        while let Some((&(due, _), _)) = self.in_flight.first_key_value() {
            if due > tick {
                break;
            }
            let Some(((_, _), f)) = self.in_flight.pop_first() else { break };
            let high = self.delivered_seq.entry(f.source).or_insert(0);
            if f.seq < *high {
                self.stats.reordered_packets += 1;
            }
            *high = (*high).max(f.seq + 1);
            self.stats.delivered_packets += 1;
            self.stats.delivered_records += f.records.len() as u64;
            deliver(&Delivery { source: f.source, seq: f.seq, records: f.records });
        }
        self.stats.ticks += 1;
        self.tick += 1;
    }

    /// Keep stepping until the network is quiescent: no scripted events
    /// left, every agent up with an empty buffer, nothing in flight. Bounded
    /// defensively, so a pathological script cannot spin forever.
    pub fn drain(&mut self, mut deliver: impl FnMut(&Delivery)) {
        let mut guard = 0u32;
        while !self.is_idle() && guard < 1_000_000 {
            self.step(&mut deliver);
            guard += 1;
        }
    }

    fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
            && self.script.events.is_empty()
            && self.agents.values().all(|a| {
                a.buffer.is_empty()
                    && !a.replay_pending
                    && a.down_until.is_none_or(|t| t <= self.tick)
            })
    }

    fn apply(&mut self, tick: u64, event: FaultEvent) {
        match event {
            FaultEvent::Crash { host, down_ticks, mode } => {
                let agent = self.agents.entry(host).or_default();
                self.stats.lost_at_agent_records += agent.buffer.len() as u64;
                agent.buffer.clear();
                agent.down_until = Some(tick + down_ticks);
                agent.replay_pending = mode == CrashMode::ReplayLastFlush;
            }
            FaultEvent::DelayFlush { host, ticks } => {
                self.agents.entry(host).or_default().delay_until = Some(tick + ticks);
            }
            FaultEvent::SkewClock { host, skew_secs } => {
                self.agents.entry(host).or_default().skew_secs = skew_secs;
            }
            FaultEvent::Partition { hosts, heal_after_ticks } => {
                for host in hosts {
                    self.agents.entry(host).or_default().partition_until =
                        Some(tick + heal_after_ticks);
                }
            }
        }
    }

    /// Put one packet on the wire: drop, duplicate, and latency draws in a
    /// fixed order (a clean config draws nothing, so clean runs are
    /// RNG-free).
    fn send(&mut self, tick: u64, source: Ipv4Addr, seq: u64, records: Vec<ConnSummary>) {
        self.stats.flushed_packets += 1;
        self.stats.flushed_records += records.len() as u64;
        if self.cfg.drop_rate > 0.0 && self.rng.random_bool(self.cfg.drop_rate) {
            self.stats.dropped_packets += 1;
            self.stats.dropped_records += records.len() as u64;
            return;
        }
        let copies =
            if self.cfg.duplicate_rate > 0.0 && self.rng.random_bool(self.cfg.duplicate_rate) {
                self.stats.duplicated_packets += 1;
                2
            } else {
                1
            };
        let (lo, hi) = self.cfg.latency_ticks;
        for _ in 0..copies {
            let latency = if hi > lo { lo + self.rng.random_range(0..hi - lo + 1) } else { lo };
            let id = self.next_msg;
            self.next_msg += 1;
            self.in_flight
                .insert((tick + latency, id), Flight { source, seq, records: records.clone() });
        }
    }
}

/// Parameterized ready-made fault scripts — the shipped scenarios the
/// harness tests and the bench's `faultsim` section both run.
pub mod scripts {
    use super::{CrashMode, FaultEvent, FaultScript};
    use std::net::Ipv4Addr;

    /// Crash `host` at tick 2 for `down_ticks`, losing its unflushed buffer.
    pub fn crash_lose(host: Ipv4Addr, down_ticks: u64) -> FaultScript {
        FaultScript::new()
            .at(2, FaultEvent::Crash { host, down_ticks, mode: CrashMode::LoseBuffer })
    }

    /// Crash `host` at tick 2 for `down_ticks`; on restart it replays its
    /// last flushed packet (which delivery dedup must discard).
    pub fn crash_replay(host: Ipv4Addr, down_ticks: u64) -> FaultScript {
        FaultScript::new()
            .at(2, FaultEvent::Crash { host, down_ticks, mode: CrashMode::ReplayLastFlush })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlog::record::FlowKey;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    fn rec(ts: u64, src: u8, dst: u8) -> ConnSummary {
        ConnSummary {
            ts,
            key: FlowKey::tcp(ip(src), 40_000, ip(dst), 443),
            pkts_sent: 2,
            pkts_rcvd: 1,
            bytes_sent: 500,
            bytes_rcvd: 100,
        }
    }

    fn collect(
        sim: &mut NetSim,
        ticks: u64,
        per_tick: impl Fn(u64) -> Vec<ConnSummary>,
    ) -> Vec<Delivery> {
        let mut out = Vec::new();
        for t in 0..ticks {
            sim.offer(&per_tick(t));
            sim.step(|d| out.push(d.clone()));
        }
        sim.drain(|d| out.push(d.clone()));
        out
    }

    #[test]
    fn clean_network_delivers_everything_once_in_order() {
        let mut sim = NetSim::new(NetConfig::clean(), FaultScript::new()).unwrap();
        let out = collect(&mut sim, 5, |t| vec![rec(t * 60, 1, 2), rec(t * 60, 3, 2)]);
        assert_eq!(sim.stats().delivered_records, 10);
        assert_eq!(sim.stats().dropped_packets, 0);
        assert_eq!(sim.stats().reordered_packets, 0);
        // Per-source sequence numbers are contiguous from zero.
        let mut per_source: BTreeMap<Ipv4Addr, Vec<u64>> = BTreeMap::new();
        for d in &out {
            per_source.entry(d.source).or_default().push(d.seq);
        }
        for (_, seqs) in per_source {
            assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        let cfg = NetConfig {
            latency_ticks: (0, 3),
            drop_rate: 0.2,
            duplicate_rate: 0.2,
            ..NetConfig::default()
        };
        let run = |seed: u64| {
            let mut sim =
                NetSim::new(NetConfig { seed, ..cfg.clone() }, FaultScript::new()).unwrap();
            let out = collect(&mut sim, 20, |t| vec![rec(t * 60, 1, 2), rec(t * 60, 2, 1)]);
            let trace: Vec<(Ipv4Addr, u64, usize)> =
                out.iter().map(|d| (d.source, d.seq, d.records.len())).collect();
            (trace, sim.stats().clone())
        };
        assert_eq!(run(7), run(7), "same seed, byte-identical delivery trace");
        assert_ne!(run(7).0, run(8).0, "different seeds actually vary");
    }

    #[test]
    fn drops_and_duplicates_are_counted_exactly() {
        let cfg = NetConfig { drop_rate: 1.0, ..NetConfig::clean() };
        let mut sim = NetSim::new(cfg, FaultScript::new()).unwrap();
        let out = collect(&mut sim, 3, |t| vec![rec(t * 60, 1, 2)]);
        assert!(out.is_empty());
        assert_eq!(sim.stats().dropped_packets, 3);
        assert_eq!(sim.stats().dropped_records, 3);

        let cfg = NetConfig { duplicate_rate: 1.0, ..NetConfig::clean() };
        let mut sim = NetSim::new(cfg, FaultScript::new()).unwrap();
        let out = collect(&mut sim, 3, |t| vec![rec(t * 60, 1, 2)]);
        assert_eq!(out.len(), 6, "every packet delivered twice");
        assert_eq!(sim.stats().duplicated_packets, 3);
    }

    #[test]
    fn crash_loses_buffer_and_replay_resends_last_flush() {
        // flush_every 2 ⇒ tick 1's records sit in the buffer when the
        // crash lands at tick 2.
        let cfg = NetConfig { flush_every: 2, ..NetConfig::clean() };
        let mut sim = NetSim::new(cfg.clone(), scripts::crash_lose(ip(1), 2)).unwrap();
        let out = collect(&mut sim, 6, |t| vec![rec(t * 60, 1, 2)]);
        // Tick 0 flushes at 0; tick 1's record is lost by the crash at 2;
        // ticks 2, 3 offered while down are lost; ticks 4, 5 flush after
        // restart.
        assert_eq!(sim.stats().lost_at_agent_records, 3);
        assert_eq!(sim.stats().replayed_packets, 0);
        let delivered: u64 = out.iter().map(|d| d.records.len() as u64).sum();
        assert_eq!(delivered, 3);

        let mut sim = NetSim::new(cfg, scripts::crash_replay(ip(1), 2)).unwrap();
        let out = collect(&mut sim, 6, |t| vec![rec(t * 60, 1, 2)]);
        assert_eq!(sim.stats().replayed_packets, 1);
        let seqs: Vec<u64> = out.iter().map(|d| d.seq).collect();
        assert_eq!(seqs.iter().filter(|&&s| s == 0).count(), 2, "flush 0 arrives twice");
    }

    #[test]
    fn partition_holds_and_heals() {
        let cut = FaultEvent::Partition { hosts: vec![ip(1), ip(3)], heal_after_ticks: 3 };
        let mut sim = NetSim::new(NetConfig::clean(), FaultScript::new().at(1, cut)).unwrap();
        let mut deliveries_by_tick: Vec<(u64, u64)> = Vec::new();
        for t in 0..6 {
            sim.offer(&[rec(t * 60, 1, 2), rec(t * 60, 3, 2), rec(t * 60, 5, 2)]);
            let mut n = 0u64;
            sim.step(|d| n += d.records.len() as u64);
            deliveries_by_tick.push((t, n));
        }
        sim.drain(|_| {});
        // Unpartitioned host 5 delivers every tick; 1 and 3 hold ticks 1-3
        // and release the backlog at tick 4.
        assert_eq!(deliveries_by_tick[1], (1, 1));
        assert_eq!(deliveries_by_tick[3], (3, 1));
        assert_eq!(deliveries_by_tick[4], (4, 9), "backlog of 3 ticks × 2 hosts + current");
        assert_eq!(sim.stats().delivered_records, 18, "nothing is lost, only late");
    }

    #[test]
    fn clock_skew_rewrites_buffered_timestamps() {
        let skew = FaultScript::new().at(1, FaultEvent::SkewClock { host: ip(1), skew_secs: -50 });
        let mut sim = NetSim::new(NetConfig::clean(), skew).unwrap();
        let out = collect(&mut sim, 3, |t| vec![rec(100 + t * 60, 1, 2)]);
        let ts: Vec<u64> = out.iter().flat_map(|d| d.records.iter().map(|r| r.ts)).collect();
        // Offers precede the tick's scripted events, so the skew set at
        // tick 1 first touches records offered at tick 2.
        assert_eq!(ts, vec![100, 160, 170]);
    }

    #[test]
    fn latency_jitter_reorders_and_is_detected() {
        let cfg = NetConfig { latency_ticks: (0, 3), seed: 11, ..NetConfig::default() };
        let mut sim = NetSim::new(cfg, FaultScript::new()).unwrap();
        let out = collect(&mut sim, 40, |t| vec![rec(t * 60, 1, 2)]);
        assert_eq!(out.len(), 40, "jitter never loses packets");
        assert!(sim.stats().reordered_packets > 0, "a 4-tick spread must reorder eventually");
        let seqs: Vec<u64> = out.iter().map(|d| d.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "delivery order differs from send order");
        assert_eq!(sorted, (0..40).collect::<Vec<_>>(), "every flush delivered exactly once");
    }

    #[test]
    fn script_grammar_round_trips() {
        let text = "
            # warm-up is clean
            at 2 crash 10.0.0.1 for 3 replay
            at 4 delay 10.0.0.2 for 2; at 5 skew 10.0.0.3 -40
            at 6 partition 10.0.0.1,10.0.0.4 for 3
        ";
        let parsed = FaultScript::parse(text).unwrap();
        let built = FaultScript::new()
            .at(
                2,
                FaultEvent::Crash { host: ip(1), down_ticks: 3, mode: CrashMode::ReplayLastFlush },
            )
            .at(4, FaultEvent::DelayFlush { host: ip(2), ticks: 2 })
            .at(5, FaultEvent::SkewClock { host: ip(3), skew_secs: -40 })
            .at(6, FaultEvent::Partition { hosts: vec![ip(1), ip(4)], heal_after_ticks: 3 });
        assert_eq!(parsed, built);
        assert_eq!(parsed.len(), 4);
        assert!(FaultScript::parse("at 2 reboot 10.0.0.1").is_err());
        assert!(FaultScript::parse("crash 10.0.0.1 for 3 lose").is_err());
        assert!(FaultScript::parse("at 2 crash nothost for 3 lose").is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = |cfg: NetConfig| NetSim::new(cfg, FaultScript::new()).is_err();
        assert!(bad(NetConfig { drop_rate: 1.5, ..NetConfig::default() }));
        assert!(bad(NetConfig { duplicate_rate: -0.1, ..NetConfig::default() }));
        assert!(bad(NetConfig { flush_every: 0, ..NetConfig::default() }));
        assert!(bad(NetConfig { latency_ticks: (3, 1), ..NetConfig::default() }));
    }
}
