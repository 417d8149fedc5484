//! Streaming graph construction: the group-by-aggregate of §3.2.
//!
//! The builder consumes connection summaries one at a time and accumulates
//! per-node-pair counters — memory proportional to the number of node pairs,
//! exactly the cost model the paper analyzes. [`GraphBuilder`] is that
//! kernel for one window; [`WindowedBuilder`] is the window roll that drives
//! it over one stream (its contract is on the type). Three subtleties:
//!
//! * **Vantage dedup.** Per-NIC collection reports a flow from *both*
//!   endpoints when both are inside the subscription. Given the monitored
//!   [`Inventory`], the builder keeps only the canonical endpoint's report
//!   for double-covered flows, so edge counters are not doubled.
//! * **Connection counting.** `conns` counts deduped flow-reports
//!   (flow-minutes). For sub-minute flows — the overwhelming majority in
//!   cloud RPC workloads — this equals the number of connections; long-lived
//!   flows contribute one count per interval they span.
//! * **Service ports.** Each edge also records the distinct service ports
//!   ([`service_port`]) its kept records named, so the window's allow rules
//!   can be learned from edges. The first port shares a word with the
//!   connection count in the entry the record already probes (one compare
//!   per record, no larger entry); an edge meeting another port grows a
//!   spill set, and the graph lists every edge's ports in ascending order.

use crate::graph::{CommGraph, EdgeValue};
use crate::hash::FixedState;
use crate::node::{Facet, NodeId};
use crate::stats::EdgeStats;
use flowlog::record::{service_port, ConnSummary};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The monitored-IP inventory as a shared handle: hashed once onto the record
/// path's hasher, refcount-cloned into each window's builder, read as a set.
// bound: one entry per address the provider lists; fixed once built.
#[derive(Debug, Clone, Default)]
pub struct Inventory(Arc<HashSet<Ipv4Addr, FixedState>>);

impl From<HashSet<Ipv4Addr>> for Inventory {
    fn from(ips: HashSet<Ipv4Addr>) -> Self {
        Inventory(Arc::new(ips.into_iter().collect()))
    }
}

impl std::ops::Deref for Inventory {
    type Target = HashSet<Ipv4Addr, FixedState>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// The vantage-dedup rule, stated once: a flow between two monitored IPs was
/// reported by both endpoints, so only the canonical copy survives; with an
/// empty inventory or one monitored end, every record does. Asked cheapest
/// first: emptiness, orientation (only a non-canonical copy can drop), the probes.
pub fn survives_vantage_dedup(monitored: &Inventory, r: &ConnSummary) -> bool {
    monitored.is_empty()
        || r.key.is_canonical()
        || !(monitored.contains(&r.key.remote_ip) && monitored.contains(&r.key.local_ip))
}

/// Accumulates one window's records into a [`CommGraph`].
///
/// ```
/// use commgraph_graph::{Facet, GraphBuilder};
/// use flowlog::record::{ConnSummary, FlowKey};
/// use std::net::Ipv4Addr;
///
/// let mut b = GraphBuilder::new(Facet::Ip, 0, 3600);
/// b.add(&ConnSummary {
///     ts: 0,
///     key: FlowKey::tcp("10.0.0.1".parse().unwrap(), 40000,
///                       "10.0.0.2".parse().unwrap(), 443),
///     pkts_sent: 2, pkts_rcvd: 1, bytes_sent: 900, bytes_rcvd: 100,
/// });
/// let g = b.finish();
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.totals().bytes(), 1000);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    facet: Facet,
    /// Flows between two monitored IPs are deduped to the canonical
    /// vantage. Empty (the default) means every record counts:
    /// single-vantage telemetry, e.g. chokepoint captures.
    monitored: Inventory,
    edges: HashMap<(NodeId, NodeId), EdgeAcc, FixedState>,
    /// The ports beyond its first of every edge that carried several.
    // bound: one set per such edge, each ≤ its distinct ports: in all ≤ the
    // window's distinct (edge, port) pairs. `restart` hands them all out.
    spills: HashMap<(NodeId, NodeId), BTreeSet<u16>, FixedState>,
    window_start: u64,
    window_len: u64,
    records_seen: u64,
    records_kept: u64,
}

/// One edge-table entry: [`EdgeStats`]' counters, with the connection count
/// sharing its word with the first service port the edge carried — so an
/// entry is no larger than the counters alone, and the per-record port test
/// is one compare on a word the record updates anyway.
#[derive(Debug, Clone, Copy)]
struct EdgeAcc {
    bytes_fwd: u64,
    bytes_rev: u64,
    pkts_fwd: u64,
    pkts_rev: u64,
    /// `conns · CONN | first port`.
    // bound: conns < 2⁴⁸ records per edge and window.
    word: u64,
}

/// One connection in [`EdgeAcc::word`], above the port's 16 bits.
const CONN: u64 = 1 << 16;

impl EdgeValue for EdgeAcc {
    fn stats(self) -> EdgeStats {
        EdgeStats {
            bytes_fwd: self.bytes_fwd,
            bytes_rev: self.bytes_rev,
            pkts_fwd: self.pkts_fwd,
            pkts_rev: self.pkts_rev,
            conns: self.word / CONN,
        }
    }

    fn port(self) -> Option<u16> {
        Some(self.word as u16)
    }
}

impl GraphBuilder {
    /// New builder for a window starting at `window_start` lasting
    /// `window_len` seconds.
    pub fn new(facet: Facet, window_start: u64, window_len: u64) -> Self {
        GraphBuilder {
            facet,
            monitored: Inventory::default(),
            edges: HashMap::default(),
            spills: HashMap::default(),
            window_start,
            window_len,
            records_seen: 0,
            records_kept: 0,
        }
    }

    /// Enable vantage dedup against the given monitored-IP inventory: a
    /// `HashSet` (rehashed here), or an [`Inventory`] clone to share one.
    pub fn with_monitored(mut self, monitored: impl Into<Inventory>) -> Self {
        self.monitored = monitored.into();
        self
    }

    /// The inventory vantage dedup reads (empty: dedup off).
    pub fn monitored(&self) -> &Inventory {
        &self.monitored
    }

    /// Records offered / records kept after dedup.
    pub fn record_counts(&self) -> (u64, u64) {
        (self.records_seen, self.records_kept)
    }

    /// Current number of distinct node pairs (the memory driver).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Offer one record. Returns whether it was kept: `false` means vantage
    /// dedup left it out (see [`survives_vantage_dedup`]).
    #[inline]
    pub fn add(&mut self, r: &ConnSummary) -> bool {
        self.records_seen += 1;
        if !survives_vantage_dedup(&self.monitored, r) {
            return false;
        }
        self.records_kept += 1;
        let (local, remote) = self.facet.endpoints(r);
        // Orient the undirected edge key and the byte direction split.
        let (key, fwd_bytes, rev_bytes, fwd_pkts, rev_pkts) = if local <= remote {
            ((local, remote), r.bytes_sent, r.bytes_rcvd, r.pkts_sent, r.pkts_rcvd)
        } else {
            ((remote, local), r.bytes_rcvd, r.bytes_sent, r.pkts_rcvd, r.pkts_sent)
        };
        let port = service_port(&r.key);
        let e = self.edges.entry(key).or_insert(EdgeAcc {
            bytes_fwd: 0,
            bytes_rev: 0,
            pkts_fwd: 0,
            pkts_rev: 0,
            word: u64::from(port),
        });
        e.bytes_fwd = e.bytes_fwd.saturating_add(fwd_bytes);
        e.bytes_rev = e.bytes_rev.saturating_add(rev_bytes);
        e.pkts_fwd = e.pkts_fwd.saturating_add(fwd_pkts);
        e.pkts_rev = e.pkts_rev.saturating_add(rev_pkts);
        e.word += CONN;
        if e.word as u16 != port {
            self.spill(r);
        }
        true
    }

    /// The cold half of recording a port: `r` carried a port other than its
    /// edge's first. It derives the edge key from `r` again: keeping the key
    /// alive through the hot half costs that half even when this never runs.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, r: &ConnSummary) {
        let (local, remote) = self.facet.endpoints(r);
        let key = (local.min(remote), local.max(remote));
        self.spills.entry(key).or_default().insert(service_port(&r.key));
    }

    /// Offer a batch.
    pub fn add_all<'a>(&mut self, records: impl IntoIterator<Item = &'a ConnSummary>) {
        for r in records {
            self.add(r);
        }
    }

    /// Start of the window this builder aggregates.
    pub fn window_start(&self) -> u64 {
        self.window_start
    }

    /// Finish the window into an immutable snapshot.
    pub fn finish(self) -> CommGraph {
        let (start, len) = (self.window_start, self.window_len);
        CommGraph::assemble(self.facet.name(), start, len, self.edges, self.spills)
    }

    /// Hand out the window's snapshot and restart, empty, as the builder of
    /// the window starting at `window_start`. The edge table keeps its
    /// capacity, so a steady stream of windows stops allocating one; no
    /// spill set outlives its window.
    pub fn restart(&mut self, window_start: u64) -> CommGraph {
        let start = std::mem::replace(&mut self.window_start, window_start);
        (self.records_seen, self.records_kept) = (0, 0);
        let (edges, spills) = (self.edges.drain(), self.spills.drain());
        CommGraph::assemble(self.facet.name(), start, self.window_len, edges, spills)
    }
}

/// What became of a record offered to [`WindowedBuilder::add`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Aggregated into the open window's graph.
    Kept,
    /// In the open window, but the non-canonical copy of a double-reported
    /// flow: vantage dedup left it out of the graph.
    Deduped,
    /// Its window closed before it arrived: dropped.
    Behind,
}

/// The window roll: splits one record stream into fixed windows — the
/// "time-series of graphs" the paper's dynamic analyses consume — through
/// one [`GraphBuilder`] it keeps for its whole life, recycled from window to
/// window by [`GraphBuilder::restart`] as a shard recycles its tables.
///
/// The contract: a record in the open window is applied (timestamps may
/// jitter *within* it, so vantage duplicates and mildly reordered delivery
/// land correctly); a record in a newer window closes the open one, whose
/// graph is handed to the caller at that moment, and opens its own; a
/// record [`Outcome::Behind`] the open window is dropped — re-opening a
/// closed window would emit it twice and corrupt the time series. Every
/// window is therefore handed out exactly once, in strictly increasing
/// start order, holding exactly the records that were not behind.
/// [`WindowedBuilder::finish`] closes the open window by hand and leaves
/// the roll empty, as new: the order holds between two such calls.
#[derive(Debug)]
pub struct WindowedBuilder {
    // bound: one edge table (and spill map) sized for the busiest window
    // the roll has closed, like a shard's recycled table; emptied, not
    // freed, at every close.
    builder: GraphBuilder,
    /// Whether `builder` holds an open window (its `window_start`).
    open: bool,
}

impl WindowedBuilder {
    /// Roll emitting one IP graph per `window_len` seconds (3600 for the
    /// paper's hourly graphs).
    pub fn new(window_len: u64) -> Self {
        assert!(window_len > 0, "window length must be positive");
        WindowedBuilder { builder: GraphBuilder::new(Facet::Ip, 0, window_len), open: false }
    }

    /// Enable vantage dedup (see [`GraphBuilder::with_monitored`]).
    pub fn with_monitored(mut self, monitored: impl Into<Inventory>) -> Self {
        self.builder.monitored = monitored.into();
        self
    }

    /// Offer one record. Returns what became of it and, when it opened a
    /// newer window, the graph of the window that closed.
    pub fn add(&mut self, r: &ConnSummary) -> (Outcome, Option<CommGraph>) {
        let outcome = |kept| if kept { Outcome::Kept } else { Outcome::Deduped };
        let b = &mut self.builder;
        if self.open && r.ts < b.window_start {
            return (Outcome::Behind, None);
        }
        // A range check on the open window: the bucket division runs once
        // per roll, not once per record.
        if self.open && r.ts - b.window_start < b.window_len {
            return (outcome(b.add(r)), None);
        }
        let start = flowlog::time::bucket_start(r.ts, b.window_len);
        let closed = self.open.then(|| b.restart(start));
        (b.window_start, self.open) = (start, true);
        (outcome(b.add(r)), closed)
    }

    /// End of stream: close the open window and hand over its graph, if any
    /// record arrived since the roll was new or last finished.
    pub fn finish(&mut self) -> Option<CommGraph> {
        let start = self.builder.window_start;
        std::mem::take(&mut self.open).then(|| self.builder.restart(start))
    }

    /// Slots in the recycled edge table.
    #[cfg(test)]
    fn edge_capacity(&self) -> usize {
        self.builder.edges.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlog::record::FlowKey;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    fn rec(ts: u64, l: u8, lp: u16, r: u8, rp: u16, sent: u64, rcvd: u64) -> ConnSummary {
        ConnSummary {
            ts,
            key: FlowKey::tcp(ip(l), lp, ip(r), rp),
            pkts_sent: sent.div_ceil(1000).max(1),
            pkts_rcvd: rcvd.div_ceil(1000).max(1),
            bytes_sent: sent,
            bytes_rcvd: rcvd,
        }
    }

    #[test]
    fn aggregates_records_into_edges() {
        let mut b = GraphBuilder::new(Facet::Ip, 0, 3600);
        b.add(&rec(0, 1, 40_000, 2, 443, 1000, 200));
        b.add(&rec(60, 1, 40_001, 2, 443, 500, 100));
        let g = b.finish();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let e = g.edge(0, 1).unwrap();
        assert_eq!(e.bytes(), 1800);
        assert_eq!(e.conns, 2);
    }

    #[test]
    fn direction_split_follows_node_order() {
        let mut b = GraphBuilder::new(Facet::Ip, 0, 3600);
        // Reporter is the *higher* IP: its sent bytes flow higher→lower.
        b.add(&rec(0, 2, 40_000, 1, 443, 700, 50));
        let g = b.finish();
        let lo = g.index_of(&NodeId::Ip(ip(1))).unwrap();
        let hi = g.index_of(&NodeId::Ip(ip(2))).unwrap();
        let e = g.edge(lo, hi).unwrap();
        assert_eq!(e.bytes_fwd, 50, "lower→higher is what ip1 sent (reported as rcvd)");
        assert_eq!(e.bytes_rev, 700);
    }

    #[test]
    fn dedup_halves_double_reported_flows() {
        let flow = rec(0, 1, 40_000, 2, 443, 1000, 200);
        let monitored: HashSet<Ipv4Addr> = [ip(1), ip(2)].into_iter().collect();

        let mut with = GraphBuilder::new(Facet::Ip, 0, 3600).with_monitored(monitored);
        with.add(&flow);
        with.add(&flow.mirrored());
        let g = with.finish();
        assert_eq!(g.edge(0, 1).unwrap().bytes(), 1200, "each byte counted once");
        assert_eq!(g.edge(0, 1).unwrap().conns, 1);

        let mut without = GraphBuilder::new(Facet::Ip, 0, 3600);
        without.add(&flow);
        without.add(&flow.mirrored());
        let g2 = without.finish();
        assert_eq!(g2.edge(0, 1).unwrap().bytes(), 2400, "no inventory ⇒ no dedup");
    }

    #[test]
    fn dedup_keeps_single_vantage_flows() {
        // Remote is NOT monitored: the single report must be kept even
        // though it is non-canonical.
        let monitored: HashSet<Ipv4Addr> = [ip(2)].into_iter().collect();
        let mut b = GraphBuilder::new(Facet::Ip, 0, 3600).with_monitored(monitored);
        b.add(&rec(0, 2, 40_000, 1, 443, 700, 50)); // local 10.0.0.2 > remote 10.0.0.1
        let g = b.finish();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.totals().bytes(), 750);
    }

    #[test]
    fn ipport_facet_separates_services_on_one_host() {
        let mut b = GraphBuilder::new(Facet::IpPort, 0, 3600);
        b.add(&rec(0, 1, 40_000, 2, 443, 100, 10));
        b.add(&rec(0, 1, 40_001, 2, 8080, 100, 10));
        let g = b.finish();
        // Same hosts, two service ports ⇒ 4 nodes, 2 edges.
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn restart_hands_out_the_window_and_starts_the_next_empty() {
        let mut b = GraphBuilder::new(Facet::Ip, 0, 60);
        b.add(&rec(0, 1, 40_000, 2, 443, 100, 10));
        b.add(&rec(5, 1, 40_001, 3, 443, 100, 10));
        let first = b.restart(60);
        assert_eq!((first.window_start(), first.edge_count(), first.totals().conns), (0, 2, 2));
        assert_eq!((b.window_start(), b.edge_count(), b.record_counts()), (60, 0, (0, 0)));
        b.add(&rec(61, 2, 40_002, 3, 443, 700, 70));
        let mut fresh = GraphBuilder::new(Facet::Ip, 60, 60);
        fresh.add(&rec(61, 2, 40_002, 3, 443, 700, 70));
        let (reused, want) = (b.finish(), fresh.finish());
        assert_eq!(reused.nodes(), want.nodes());
        assert_eq!(reused.neighbors(0), want.neighbors(0));
        assert_eq!((reused.window_start(), reused.totals()), (60, want.totals()));
    }

    /// Each edge carries the distinct service ports its kept records named,
    /// ascending, from either end; a deduped copy adds none.
    #[test]
    fn edges_carry_their_service_ports() {
        let monitored: HashSet<Ipv4Addr> = [ip(1), ip(2)].into_iter().collect();
        let mut b = GraphBuilder::new(Facet::Ip, 0, 3600).with_monitored(monitored);
        for (lp, rp) in [(40_000, 8080), (40_001, 443), (443, 40_002), (40_003, 8080)] {
            b.add(&rec(0, 1, lp, 2, rp, 100, 10));
        }
        b.add(&rec(0, 1, 40_004, 2, 22, 100, 10).mirrored()); // deduped
        b.add(&rec(0, 1, 40_005, 3, 5432, 100, 10));
        let g = b.finish();
        let ports = |from: u32, to: u32| {
            let e = g.neighbors(from).iter().find(|e| e.node == to).expect("edge");
            g.ports(from, e).to_vec()
        };
        assert_eq!(ports(0, 1), [443, 8080]);
        assert_eq!(ports(1, 0), [443, 8080], "the same from either end");
        assert_eq!(ports(0, 2), [5432]);
    }

    /// `restart` hands every spill set out with its window: the recycled
    /// table starts the next window holding none, and builds what a fresh
    /// builder builds, ports included.
    #[test]
    fn restart_leaves_no_spill_behind() {
        let mut b = GraphBuilder::new(Facet::Ip, 0, 60);
        for port in [443, 8080, 9090, 443] {
            b.add(&rec(0, 1, 40_000, 2, port, 100, 10));
        }
        b.add(&rec(1, 1, 40_000, 3, 22, 100, 10));
        assert_eq!(b.spills.len(), 1, "one edge met a second port");
        let first = b.restart(60);
        assert_eq!(fingerprint(&first).2[0][0].2, [443, 8080, 9090]);
        assert!(b.spills.is_empty(), "no spill outlives its window");
        let next = [rec(61, 1, 40_000, 2, 22, 100, 10), rec(62, 1, 40_000, 2, 8080, 100, 10)];
        let mut fresh = GraphBuilder::new(Facet::Ip, 60, 60);
        b.add_all(&next);
        fresh.add_all(&next);
        assert_eq!(fingerprint(&b.restart(120)), fingerprint(&fresh.finish()));
        assert!(b.spills.is_empty());
    }

    #[test]
    fn windowed_builder_rolls_hourly() {
        let mut wb = WindowedBuilder::new(3600);
        assert!(wb.add(&rec(0, 1, 40_000, 2, 443, 100, 10)).1.is_none(), "window still open");
        assert!(wb.add(&rec(3599, 1, 40_001, 2, 443, 100, 10)).1.is_none());
        // The record that opens a newer window is handed the closed one.
        let (outcome, closed) = wb.add(&rec(3600, 1, 40_002, 2, 443, 100, 10));
        assert_eq!(outcome, Outcome::Kept);
        let first = closed.expect("window 0 closed");
        assert_eq!((first.window_start(), first.totals().conns), (0, 2));
        // A gap: window 3600 closes, 7200 opens (7300 is 100 s into it).
        let second = wb.add(&rec(7300, 1, 40_003, 2, 443, 100, 10)).1.expect("closed");
        assert_eq!(second.window_start(), 3600);
        assert_eq!(wb.finish().expect("the open window").window_start(), 7200);
        assert!(wb.finish().is_none(), "no record since, no window");
    }

    #[test]
    fn records_behind_closed_windows_drop_deterministically() {
        let mut wb = WindowedBuilder::new(60);
        assert_eq!(wb.add(&rec(0, 1, 40_000, 2, 443, 100, 10)).0, Outcome::Kept);
        let (outcome, closed) = wb.add(&rec(65, 1, 40_001, 2, 443, 100, 10));
        assert_eq!(outcome, Outcome::Kept, "rolls to window 60");
        let first = closed.expect("window 0 closed");
        // Window 0 closed when ts 65 rolled; a straggler from it must not
        // re-open window 0 (which would emit it twice), nor land in 60.
        let (outcome, closed) = wb.add(&rec(59, 1, 40_002, 2, 443, 700, 70));
        assert_eq!(outcome, Outcome::Behind);
        assert!(closed.is_none(), "a dropped record closes nothing");
        // Jitter *within* the open window is still accepted.
        assert_eq!(wb.add(&rec(61, 1, 40_003, 2, 443, 100, 10)).0, Outcome::Kept);
        assert_eq!(first.window_start(), 0);
        assert_eq!(first.totals().conns, 1, "the straggler is excluded");
        assert_eq!(wb.finish().expect("the open window").totals().conns, 2);
    }

    #[test]
    fn deduped_records_are_reported_and_still_roll_the_window() {
        let monitored: HashSet<Ipv4Addr> = [ip(1), ip(2)].into_iter().collect();
        let mut wb = WindowedBuilder::new(60).with_monitored(monitored);
        let flow = rec(0, 1, 40_000, 2, 443, 100, 10);
        assert_eq!(wb.add(&flow).0, Outcome::Kept);
        assert_eq!(wb.add(&flow.mirrored()).0, Outcome::Deduped);
        // The non-canonical copy is the first to reach window 60: it opens
        // the window (and closes window 0) though the graph never counts it.
        let mut late_mirror = flow.mirrored();
        late_mirror.ts = 60;
        let (outcome, closed) = wb.add(&late_mirror);
        assert_eq!(outcome, Outcome::Deduped);
        assert_eq!(closed.expect("window 0 closed").totals().conns, 1);
        let open = wb.finish().expect("the open window");
        assert_eq!((open.window_start(), open.edge_count()), (60, 0));
    }

    /// Everything observable about one window's graph: its start, its
    /// nodes, and every edge from both ends with its oriented stats and its
    /// service ports.
    type Fingerprint = (u64, Vec<NodeId>, Vec<Vec<(u32, EdgeStats, Vec<u16>)>>);

    fn fingerprint(g: &CommGraph) -> Fingerprint {
        let edges =
            |i| g.neighbors(i).iter().map(move |e| (e.node, e.stats, g.ports(i, e).to_vec()));
        let adj = (0..g.node_count() as u32).map(|i| edges(i).collect()).collect();
        (g.window_start(), g.nodes().to_vec(), adj)
    }

    /// Seed sweep: in-window jitter, cross-window stragglers and mirrored
    /// duplicates, inventory on and off. The graphs the roll hands out are
    /// one `GraphBuilder` per window over the records a reference admits —
    /// a record is admitted iff its window start is at least the largest
    /// window start seen before it — each window once, in increasing order.
    #[test]
    fn roll_equals_one_builder_per_window_over_the_admitted_records() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        const WINDOW: u64 = 300;
        let mut swept = [0u64; 4];
        for seed in 0..96u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut records = Vec::new();
            let mut clock = rng.random_range(0..5 * WINDOW);
            for _ in 0..rng.random_range(1..600usize) {
                clock += rng.random_range(0..40u64);
                // Mostly jitter of a few seconds around the clock; one in
                // twelve is a straggler from up to three windows back.
                let back = if rng.random_bool(1.0 / 12.0) { 3 * WINDOW } else { 20 };
                let mut r = rec(
                    clock.saturating_sub(rng.random_range(0..back)),
                    rng.random_range(1..9u32) as u8,
                    rng.random_range(1024..1028u16),
                    rng.random_range(1..9u32) as u8,
                    443,
                    rng.random_range(0..90_000u64),
                    rng.random_range(0..9_000u64),
                );
                // The service is 443 or the local port: edges meet several.
                r.key.remote_port = [443, 40_000, 8080][(r.bytes_sent % 3) as usize];
                records.push(r);
                if rng.random_bool(0.3) {
                    records
                        .push(ConnSummary { ts: r.ts + rng.random_range(0..3u64), ..r.mirrored() });
                }
            }
            let monitored = Inventory::from(if seed % 2 == 0 {
                records.iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect()
            } else {
                HashSet::new()
            });

            // The reference: admit, then one builder per window.
            let mut reference: std::collections::BTreeMap<u64, GraphBuilder> = Default::default();
            let (mut newest, mut behind) = (0, 0u64);
            for r in &records {
                let w = flowlog::time::bucket_start(r.ts, WINDOW);
                if w < newest {
                    behind += 1;
                    continue;
                }
                newest = w;
                let fresh =
                    || GraphBuilder::new(Facet::Ip, w, WINDOW).with_monitored(monitored.clone());
                reference.entry(w).or_insert_with(fresh).add(r);
            }
            let (seen, kept) = reference
                .values()
                .map(GraphBuilder::record_counts)
                .fold((0, 0), |(s, k), (seen, kept)| (s + seen, k + kept));
            let want: Vec<_> = reference.into_values().map(|b| fingerprint(&b.finish())).collect();

            let mut wb = WindowedBuilder::new(WINDOW).with_monitored(monitored.clone());
            let mut graphs = Vec::new();
            let mut outcomes = [0u64; 3];
            for r in &records {
                let (outcome, closed) = wb.add(r);
                outcomes[outcome as usize] += 1;
                graphs.extend(closed);
            }
            graphs.extend(wb.finish());
            let got: Vec<_> = graphs.iter().map(fingerprint).collect();
            assert_eq!(got, want, "seed {seed}");
            assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "seed {seed}: each window once");
            let [k, d, b] = outcomes;
            assert_eq!((k, d, b), (kept, seen - kept, behind), "seed {seed}");
            assert_eq!(k + d + b, records.len() as u64, "seed {seed}: conservation");
            swept = [swept[0] + k, swept[1] + d, swept[2] + b, swept[3] + got.len() as u64];
        }
        assert!(swept[1] > 1000 && swept[2] > 1000 && swept[3] > 500, "thin sweep: {swept:?}");
    }

    /// The roll keeps one table: from the second window on, its capacity
    /// never falls below the first window's edge count, a small window after
    /// a large one and `finish` included; and every graph it hands out is a
    /// fresh builder's over the same records, ports and vantage dedup
    /// included.
    #[test]
    fn windowed_builder_keeps_its_table_across_windows() {
        const WINDOW: u64 = 60;
        // Distinct edges per window: the second is a third of the first.
        const EDGES: [u32; 4] = [6000, 2000, 4500, 2500];
        let host = |i: u32| Ipv4Addr::from(0x0a00_0000 + i);
        let windows: Vec<Vec<ConnSummary>> = (0u32..)
            .zip(EDGES)
            .map(|(w, edges)| {
                let mut records = Vec::new();
                for e in 0..edges {
                    // Edge e joins client e / 50 and server e % 50 (shifted by
                    // the window): `edges` distinct pairs.
                    let (client, server) = (host(e / 50), host(10_000 + w + e % 50));
                    let mut r = ConnSummary {
                        ts: u64::from(w) * WINDOW + u64::from(e) % WINDOW,
                        key: FlowKey::tcp(client, 40_000, server, 443),
                        pkts_sent: 1,
                        pkts_rcvd: 1,
                        bytes_sent: u64::from(e + w),
                        bytes_rcvd: 7,
                    };
                    records.push(r);
                    if e % 3 == 0 {
                        // A second service port: the edge spills.
                        r.key.remote_port = 8080 + (e % 2) as u16;
                        records.push(r);
                    }
                    if e % 4 == 0 {
                        // The other end's report of the same flow.
                        records.push(r.mirrored());
                    }
                }
                records
            })
            .collect();
        let monitored = Inventory::from(
            windows
                .iter()
                .flatten()
                .flat_map(|r| [r.key.local_ip, r.key.remote_ip])
                .collect::<HashSet<_>>(),
        );

        let mut wb = WindowedBuilder::new(WINDOW).with_monitored(monitored.clone());
        let first = EDGES[0] as usize;
        let mut graphs = Vec::new();
        for (w, records) in windows.iter().enumerate() {
            for r in records {
                graphs.extend(wb.add(r).1);
                if w > 0 {
                    let capacity = wb.edge_capacity();
                    assert!(capacity >= first, "window {w}: table of {capacity} < {first}");
                }
            }
        }
        graphs.extend(wb.finish());
        assert!(wb.edge_capacity() >= first, "finish keeps the table");
        assert!(wb.finish().is_none(), "finish leaves the roll empty");

        let want: Vec<_> = (0u64..)
            .zip(&windows)
            .map(|(w, records)| {
                let mut fresh = GraphBuilder::new(Facet::Ip, w * WINDOW, WINDOW)
                    .with_monitored(monitored.clone());
                fresh.add_all(records);
                fingerprint(&fresh.finish())
            })
            .collect();
        let got: Vec<_> = graphs.iter().map(fingerprint).collect();
        assert_eq!(got, want);
        let edges: Vec<_> = graphs.iter().map(CommGraph::edge_count).collect();
        assert_eq!(edges, EDGES.map(|e| e as usize));
        for g in &graphs {
            let spilled = (0..g.node_count() as u32)
                .flat_map(|i| g.neighbors(i).iter().map(move |e| g.ports(i, e).len()))
                .filter(|&ports| ports > 1)
                .count();
            assert!(spilled > 0, "window {}: no multi-port edge", g.window_start());
        }
    }

    #[test]
    fn survives_dedup_matches_builder_keep_rule() {
        let both = Inventory::from(HashSet::from([ip(1), ip(2)]));
        let (flow, mirror) =
            (rec(0, 1, 40_000, 2, 443, 100, 10), rec(0, 1, 40_000, 2, 443, 100, 10).mirrored());
        let survives = survives_vantage_dedup;
        assert_ne!(survives(&both, &flow), survives(&both, &mirror));
        // What the free function says is what the builder keeps.
        let mut b = GraphBuilder::new(Facet::Ip, 0, 60).with_monitored(both);
        b.add_all([&flow, &mirror]);
        assert_eq!(b.record_counts(), (2, 1));
        // Only one endpoint monitored ⇒ single vantage, both orientations kept.
        let half = Inventory::from(HashSet::from([ip(2)]));
        assert!(survives(&half, &flow) && survives(&half, &mirror));
        // No inventory ⇒ everything survives.
        let none = Inventory::default();
        assert!(survives(&none, &flow) && survives(&none, &mirror));
    }

    /// The rule written out longhand — dropped iff both ends are monitored
    /// and the copy is the non-canonical one — over all eight cases of
    /// (local monitored, remote monitored, canonical), through the free
    /// function and through the builder.
    #[test]
    fn dedup_truth_table_holds_through_function_and_builder() {
        for case in 0..8u8 {
            let (local_in, remote_in, canonical) = (case & 1 != 0, case & 2 != 0, case & 4 != 0);
            let flow = rec(0, 1, 40_000, 2, 443, 100, 10);
            let r = if canonical { flow } else { flow.mirrored() };
            assert_eq!(r.key.is_canonical(), canonical);
            let mut ips = HashSet::new();
            if local_in {
                ips.insert(r.key.local_ip);
            }
            if remote_in {
                ips.insert(r.key.remote_ip);
            }
            let inventory = Inventory::from(ips);
            let want = !(local_in && remote_in && !canonical);
            assert_eq!(survives_vantage_dedup(&inventory, &r), want, "case {case:03b}");
            let mut b = GraphBuilder::new(Facet::Ip, 0, 60).with_monitored(inventory);
            assert_eq!(b.add(&r), want, "case {case:03b}");
            assert_eq!(b.record_counts(), (1, u64::from(want)), "case {case:03b}");
        }
    }

    #[test]
    fn record_counts_track_dedup() {
        let flow = rec(0, 1, 40_000, 2, 443, 1000, 200);
        let monitored: HashSet<Ipv4Addr> = [ip(1), ip(2)].into_iter().collect();
        let mut b = GraphBuilder::new(Facet::Ip, 0, 3600).with_monitored(monitored);
        b.add(&flow);
        b.add(&flow.mirrored());
        assert_eq!(b.record_counts(), (2, 1));
    }
}
