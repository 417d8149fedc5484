//! Simulated smartNIC capture path (Figure 7 of the paper).
//!
//! Public-cloud hosts carry programmable NICs that already keep per-flow
//! state for network virtualization; recording a few counters per flow is a
//! small additional burden. This module simulates that capture path:
//!
//! * `FlowTable` — bounded per-flow counter state living "on the NIC".
//!   When the table is full, the least-recently-active flow is evicted and
//!   its counters are flushed as an early summary, so **no traffic is ever
//!   lost** — an invariant the tests and property tests pin down.
//! * [`HostAgent`] — the host-side process that periodically pulls the
//!   table and forwards connection summaries to the analytics service.
//!
//! Because collection happens below the guest OS, a breached VM cannot
//! tamper with it; the simulation preserves that boundary by exposing no way
//! for traffic observations to mutate already-recorded counters.

use crate::record::{ConnSummary, FlowKey};
use crate::time::bucket_start;
use std::collections::{BTreeSet, HashMap};

/// Direction of an observed packet relative to the local VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Sent by the local VM.
    Tx,
    /// Received by the local VM.
    Rx,
}

/// Per-flow counters accumulated since the last drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FlowState {
    pkts_sent: u64,
    pkts_rcvd: u64,
    bytes_sent: u64,
    bytes_rcvd: u64,
    /// Timestamp of the most recent packet, for LRU eviction and idle GC.
    last_seen: u64,
}

impl FlowState {
    fn is_empty(&self) -> bool {
        self.pkts_sent == 0 && self.pkts_rcvd == 0
    }

    fn into_summary(self, key: FlowKey, bucket_ts: u64) -> ConnSummary {
        ConnSummary {
            ts: bucket_ts,
            key,
            pkts_sent: self.pkts_sent,
            pkts_rcvd: self.pkts_rcvd,
            bytes_sent: self.bytes_sent,
            bytes_rcvd: self.bytes_rcvd,
        }
    }
}

/// Bounded per-flow counter table, as kept in smartNIC memory.
///
/// The memory footprint of real NIC telemetry is proportional to the number
/// of concurrent flows; `capacity` models that bound.
#[derive(Debug)]
pub(crate) struct FlowTable {
    flows: HashMap<FlowKey, FlowState>,
    /// LRU index: `(last_seen, key)` mirrors `flows`, so the eviction victim
    /// is always the first element — O(log n) per touch instead of a full
    /// scan per eviction (which dominates at NIC rates).
    lru: BTreeSet<(u64, FlowKey)>,
    capacity: usize,
    agg_interval: u64,
}

impl FlowTable {
    /// Create a table holding at most `capacity` concurrent flows, emitting
    /// summaries bucketed to `agg_interval` seconds.
    ///
    /// # Panics
    /// Panics if `capacity` or `agg_interval` is zero.
    pub(crate) fn new(capacity: usize, agg_interval: u64) -> Self {
        assert!(capacity > 0, "flow table capacity must be positive");
        assert!(agg_interval > 0, "aggregation interval must be positive");
        FlowTable {
            flows: HashMap::with_capacity(capacity.min(1 << 16)),
            lru: BTreeSet::new(),
            capacity,
            agg_interval,
        }
    }

    /// Record `pkts` packets totalling `bytes` for `key` at time `ts`.
    ///
    /// If the flow is new and the table is full, the least-recently-active
    /// flow is evicted and returned as an early summary that the host agent
    /// must forward; its counters are flushed, never dropped.
    pub(crate) fn observe(
        &mut self,
        ts: u64,
        key: FlowKey,
        dir: Direction,
        pkts: u64,
        bytes: u64,
    ) -> Option<ConnSummary> {
        let mut evicted = None;
        match self.flows.get(&key) {
            Some(prev) => {
                // Re-key the LRU index to the new touch time.
                self.lru.remove(&(prev.last_seen, key));
            }
            None => {
                if self.flows.len() >= self.capacity {
                    evicted = self.evict_lru(ts);
                }
            }
        }
        self.lru.insert((ts, key));

        let st = self.flows.entry(key).or_default();
        st.last_seen = ts;
        match dir {
            Direction::Tx => {
                st.pkts_sent += pkts;
                st.bytes_sent += bytes;
            }
            Direction::Rx => {
                st.pkts_rcvd += pkts;
                st.bytes_rcvd += bytes;
            }
        }
        evicted
    }

    /// Evict the least-recently-seen flow, flushing non-empty counters.
    fn evict_lru(&mut self, now: u64) -> Option<ConnSummary> {
        let (last_seen, victim) = self.lru.first().copied()?;
        self.lru.remove(&(last_seen, victim));
        // The LRU index mirrors the flow map; if they ever diverge, the
        // stale index entry is already dropped above — skip this round
        // rather than panic inside the hot eviction path.
        let st = self.flows.remove(&victim)?;
        if st.is_empty() {
            return None;
        }
        Some(st.into_summary(victim, bucket_start(now, self.agg_interval)))
    }

    /// Drain every flow's counters into summaries for the bucket containing
    /// `now`, resetting counters but keeping flow entries so long-lived flows
    /// stay cheap. Flows idle since before `idle_cutoff` are removed.
    pub(crate) fn drain(&mut self, now: u64, idle_cutoff: u64) -> Vec<ConnSummary> {
        let bucket = bucket_start(now, self.agg_interval);
        let mut out = Vec::new();
        let lru = &mut self.lru;
        self.flows.retain(|key, st| {
            if !st.is_empty() {
                out.push(st.into_summary(*key, bucket));
                let last_seen = st.last_seen;
                *st = FlowState { last_seen, ..FlowState::default() };
            }
            let keep = st.last_seen >= idle_cutoff;
            if !keep {
                lru.remove(&(st.last_seen, *key));
            }
            keep
        });
        // Deterministic output order regardless of hash-map iteration.
        out.sort_unstable_by_key(|s| s.key);
        out
    }
}

/// The host agent of Figure 7: periodically pulls the NIC flow table and
/// forwards connection summaries.
#[derive(Debug)]
pub struct HostAgent {
    table: FlowTable,
    agg_interval: u64,
    idle_timeout: u64,
    next_pull: u64,
    pending: Vec<ConnSummary>,
}

impl HostAgent {
    /// Create an agent pulling every `agg_interval` seconds from a table of
    /// `capacity` flows. Flows idle longer than `idle_timeout` seconds are
    /// garbage-collected on pull.
    pub fn new(capacity: usize, agg_interval: u64, idle_timeout: u64) -> Self {
        HostAgent {
            table: FlowTable::new(capacity, agg_interval),
            agg_interval,
            idle_timeout,
            next_pull: agg_interval,
            pending: Vec::new(),
        }
    }

    /// Observe traffic; early-evicted summaries are buffered for the next pull.
    pub fn observe(&mut self, ts: u64, key: FlowKey, dir: Direction, pkts: u64, bytes: u64) {
        if let Some(early) = self.table.observe(ts, key, dir, pkts, bytes) {
            self.pending.push(early);
        }
    }

    /// Advance the clock to `now`, returning all summaries whose pull time
    /// has arrived (possibly several intervals' worth if time jumped).
    pub fn poll(&mut self, now: u64) -> Vec<ConnSummary> {
        let mut out = Vec::new();
        while self.next_pull <= now {
            let pull_ts = self.next_pull;
            let cutoff = pull_ts.saturating_sub(self.idle_timeout);
            // The bucket that just closed starts one interval before the pull.
            out.extend(self.table.drain(pull_ts - self.agg_interval, cutoff));
            self.next_pull += self.agg_interval;
        }
        if !self.pending.is_empty() {
            out.append(&mut self.pending);
        }
        out
    }

    /// Force out everything still buffered, regardless of schedule. Used at
    /// simulation end so no traffic is unaccounted for.
    pub fn flush(&mut self, now: u64) -> Vec<ConnSummary> {
        let mut out = std::mem::take(&mut self.pending);
        out.extend(self.table.drain(now, u64::MAX));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 40000 + i as u16, Ipv4Addr::new(10, 0, 1, 1), 443)
    }

    #[test]
    fn observe_then_drain_round_trips_counters() {
        let mut t = FlowTable::new(16, 60);
        t.observe(5, key(0), Direction::Tx, 3, 4500);
        t.observe(10, key(0), Direction::Rx, 2, 3000);
        let out = t.drain(59, 0);
        assert_eq!(out.len(), 1);
        let s = out[0];
        assert_eq!(s.ts, 0, "bucketed to interval start");
        assert_eq!((s.pkts_sent, s.bytes_sent), (3, 4500));
        assert_eq!((s.pkts_rcvd, s.bytes_rcvd), (2, 3000));
    }

    #[test]
    fn drain_resets_but_keeps_live_flows() {
        let mut t = FlowTable::new(16, 60);
        t.observe(5, key(0), Direction::Tx, 1, 100);
        assert_eq!(t.drain(59, 0).len(), 1);
        assert_eq!(t.flows.len(), 1, "live flow entry kept after drain");
        assert!(t.drain(119, 0).is_empty(), "no new traffic, no summary");
    }

    #[test]
    fn idle_flows_are_garbage_collected() {
        let mut t = FlowTable::new(16, 60);
        t.observe(5, key(0), Direction::Tx, 1, 100);
        t.drain(59, 0);
        // Cutoff after last_seen: entry removed.
        t.drain(119, 100);
        assert_eq!(t.flows.len(), 0);
    }

    #[test]
    fn eviction_flushes_not_drops() {
        let mut t = FlowTable::new(2, 60);
        t.observe(1, key(0), Direction::Tx, 1, 10);
        t.observe(2, key(1), Direction::Tx, 1, 20);
        // Third flow forces out key(0), the LRU.
        let early = t.observe(3, key(2), Direction::Tx, 1, 30);
        let early = early.expect("full table must evict with a summary");
        assert_eq!(early.key, key(0));
        assert_eq!(early.bytes_sent, 10);
        assert_eq!(t.flows.len(), 2, "key(0) left the table");

        // Total mass across early + drained equals observed.
        let mut total: u64 = early.bytes_total();
        total += t.drain(59, 0).iter().map(|s| s.bytes_total()).sum::<u64>();
        assert_eq!(total, 60);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut t = FlowTable::new(8, 60);
        for i in 0..100 {
            t.observe(i as u64, key(i), Direction::Tx, 1, 100);
            assert!(t.flows.len() <= 8);
        }
        assert_eq!(t.flows.len(), 8);
    }

    #[test]
    fn agent_emits_on_schedule() {
        let mut a = HostAgent::new(16, 60, 300);
        a.observe(10, key(0), Direction::Tx, 5, 500);
        assert!(a.poll(59).is_empty(), "before the pull boundary");
        let out = a.poll(60);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts, 0);
    }

    #[test]
    fn agent_catches_up_after_clock_jump() {
        let mut a = HostAgent::new(16, 60, 3600);
        a.observe(10, key(0), Direction::Tx, 1, 100);
        let out = a.poll(300); // five intervals at once
        assert_eq!(out.len(), 1, "one summary from the first bucket, empty buckets silent");
        assert!(a.poll(300).is_empty(), "idempotent at same time");
    }

    #[test]
    fn flush_accounts_for_everything() {
        let mut a = HostAgent::new(2, 60, 3600);
        let mut observed = 0u64;
        for i in 0..50 {
            a.observe(i as u64, key(i), Direction::Tx, 2, 250);
            observed += 250;
        }
        let mut emitted: u64 = a.poll(60).iter().map(|s| s.bytes_total()).sum();
        emitted += a.flush(61).iter().map(|s| s.bytes_total()).sum::<u64>();
        assert_eq!(emitted, observed, "no bytes lost across evictions, polls, flush");
    }
}
