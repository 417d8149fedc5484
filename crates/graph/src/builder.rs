//! Streaming graph construction: the group-by-aggregate of §3.2.
//!
//! The builder consumes connection summaries one at a time and accumulates
//! per-node-pair counters — memory proportional to the number of node pairs,
//! exactly the cost model the paper analyzes. Two subtleties:
//!
//! * **Vantage dedup.** Per-NIC collection reports a flow from *both*
//!   endpoints when both are inside the subscription. Given the monitored
//!   set, the builder keeps only the canonical endpoint's report for
//!   double-covered flows, so edge counters are not doubled.
//! * **Connection counting.** `conns` counts deduped flow-reports
//!   (flow-minutes). For sub-minute flows — the overwhelming majority in
//!   cloud RPC workloads — this equals the number of connections; long-lived
//!   flows contribute one count per interval they span.

use crate::diff::dirty_nodes;
use crate::graph::CommGraph;
use crate::hash::FixedState;
use crate::node::{Facet, NodeId};
use crate::stats::EdgeStats;
use flowlog::record::ConnSummary;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The vantage-dedup rule, stated once: a flow between two monitored IPs
/// was reported by both endpoints, so only the canonical endpoint's copy
/// survives. With an empty inventory, or a single monitored end, every
/// record does.
pub fn survives_vantage_dedup(monitored: &HashSet<Ipv4Addr>, r: &ConnSummary) -> bool {
    let both = monitored.contains(&r.key.remote_ip) && monitored.contains(&r.key.local_ip);
    !both || r.key.is_canonical()
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
    /// single-vantage telemetry, e.g. chokepoint captures. Shared, so a
    /// builder per window does not copy the inventory.
    monitored: Arc<HashSet<Ipv4Addr>>,
    edges: HashMap<(NodeId, NodeId), EdgeStats, FixedState>,
    window_start: u64,
    window_len: u64,
    records_seen: u64,
    records_kept: u64,
}

impl GraphBuilder {
    /// New builder for a window starting at `window_start` lasting
    /// `window_len` seconds.
    pub fn new(facet: Facet, window_start: u64, window_len: u64) -> Self {
        GraphBuilder {
            facet,
            monitored: Arc::default(),
            edges: HashMap::default(),
            window_start,
            window_len,
            records_seen: 0,
            records_kept: 0,
        }
    }

    /// Enable vantage dedup against the given monitored-IP inventory (a
    /// `HashSet`, or an `Arc` of one to share it between builders).
    pub fn with_monitored(mut self, monitored: impl Into<Arc<HashSet<Ipv4Addr>>>) -> Self {
        self.monitored = monitored.into();
        self
    }

    /// The facet this builder aggregates under.
    pub fn facet(&self) -> &Facet {
        &self.facet
    }

    /// Records offered / records kept after dedup.
    pub fn record_counts(&self) -> (u64, u64) {
        (self.records_seen, self.records_kept)
    }

    /// Current number of distinct node pairs (the memory driver).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Offer one record.
    pub fn add(&mut self, r: &ConnSummary) {
        self.records_seen += 1;
        if !survives_vantage_dedup(&self.monitored, r) {
            return;
        }
        self.records_kept += 1;
        let (local, remote) = self.facet.endpoints(r);
        // Orient the undirected edge key and the byte direction split.
        let (key, fwd_bytes, rev_bytes, fwd_pkts, rev_pkts) = if local <= remote {
            ((local, remote), r.bytes_sent, r.bytes_rcvd, r.pkts_sent, r.pkts_rcvd)
        } else {
            ((remote, local), r.bytes_rcvd, r.bytes_sent, r.pkts_rcvd, r.pkts_sent)
        };
        let e = self.edges.entry(key).or_default();
        e.bytes_fwd = e.bytes_fwd.saturating_add(fwd_bytes);
        e.bytes_rev = e.bytes_rev.saturating_add(rev_bytes);
        e.pkts_fwd = e.pkts_fwd.saturating_add(fwd_pkts);
        e.pkts_rev = e.pkts_rev.saturating_add(rev_pkts);
        e.conns += 1;
    }

    /// Offer a batch.
    pub fn add_all<'a>(&mut self, records: impl IntoIterator<Item = &'a ConnSummary>) {
        for r in records {
            self.add(r);
        }
    }

    /// Finish the window into an immutable snapshot.
    pub fn finish(self) -> CommGraph {
        CommGraph::from_edge_map(self.facet.name(), self.window_start, self.window_len, self.edges)
    }
}

/// Splits a record stream into fixed windows, emitting one [`CommGraph`]
/// per window — the "time-series of graphs" the paper's dynamic analyses
/// consume. Timestamps may jitter *within* the currently open window
/// (vantage duplicates and mildly reordered delivery land correctly), but a
/// record whose window has already closed is **dropped deterministically**
/// and counted in [`WindowedBuilder::dropped_behind`] — re-opening a closed
/// window would emit it twice and corrupt the time series.
#[derive(Debug)]
pub struct WindowedBuilder {
    facet: Facet,
    monitored: Arc<HashSet<Ipv4Addr>>,
    window_len: u64,
    current: Option<GraphBuilder>,
    finished: Vec<CommGraph>,
    /// Records rejected because their window closed before they arrived.
    dropped_behind: u64,
    /// When true, each closed window is diffed against its predecessor and
    /// the dirty node set (see [`crate::diff::dirty_nodes`]) is retained,
    /// aligned with `finished`.
    track_dirty: bool,
    dirty: Vec<Vec<NodeId>>,
    last_closed: Option<CommGraph>,
}

impl WindowedBuilder {
    /// Builder emitting one graph per `window_len` seconds (3600 for the
    /// paper's hourly graphs).
    pub fn new(facet: Facet, window_len: u64) -> Self {
        assert!(window_len > 0, "window length must be positive");
        WindowedBuilder {
            facet,
            monitored: Arc::default(),
            window_len,
            current: None,
            finished: Vec::new(),
            dropped_behind: 0,
            track_dirty: false,
            dirty: Vec::new(),
            last_closed: None,
        }
    }

    /// Enable vantage dedup (see [`GraphBuilder::with_monitored`]).
    pub fn with_monitored(mut self, monitored: impl Into<Arc<HashSet<Ipv4Addr>>>) -> Self {
        self.monitored = monitored.into();
        self
    }

    /// Track dirty nodes across window rolls. Each closed window is diffed
    /// against the previous one; downstream consumers use the dirty set to
    /// recompute only what actually changed. The first window is entirely
    /// dirty (there is no baseline).
    pub fn with_dirty_tracking(mut self) -> Self {
        self.track_dirty = true;
        self
    }

    fn fresh(&self, window_start: u64) -> GraphBuilder {
        GraphBuilder::new(self.facet.clone(), window_start, self.window_len)
            .with_monitored(self.monitored.clone())
    }

    /// Close one window: finish the graph and, when tracking, record its
    /// dirty set.
    fn close(&mut self, b: GraphBuilder) {
        let g = b.finish();
        if self.track_dirty {
            let d = match &self.last_closed {
                Some(prev) => dirty_nodes(prev, &g),
                None => g.nodes().to_vec(),
            };
            self.dirty.push(d);
            self.last_closed = Some(g.clone());
        }
        self.finished.push(g);
    }

    /// Records rejected so far because their window had already closed when
    /// they arrived (see [`WindowedBuilder::add`]).
    pub fn dropped_behind(&self) -> u64 {
        self.dropped_behind
    }

    /// Offer one record, rolling windows as timestamps advance. Returns
    /// whether the record was applied: a record whose window start is behind
    /// the currently open window lands in a graph that already closed, so it
    /// is dropped (counted in [`WindowedBuilder::dropped_behind`]) instead
    /// of re-opening — and double-emitting — that window.
    pub fn add(&mut self, r: &ConnSummary) -> bool {
        let w = flowlog::time::bucket_start(r.ts, self.window_len);
        let builder = match self.current.take() {
            Some(b) if b.window_start == w => b,
            Some(b) if w > b.window_start => {
                self.close(b);
                self.fresh(w)
            }
            Some(b) => {
                self.current = Some(b);
                self.dropped_behind += 1;
                return false;
            }
            None => self.fresh(w),
        };
        self.current.insert(builder).add(r);
        true
    }

    /// Offer a batch.
    pub fn add_all<'a>(&mut self, records: impl IntoIterator<Item = &'a ConnSummary>) {
        for r in records {
            self.add(r);
        }
    }

    /// Drain graphs for windows that have closed so far.
    pub fn drain_finished(&mut self) -> Vec<CommGraph> {
        self.dirty.clear();
        std::mem::take(&mut self.finished)
    }

    /// Drain closed windows paired with their dirty node sets. Without
    /// [`WindowedBuilder::with_dirty_tracking`] every node is conservatively
    /// reported dirty (no baseline ⇒ nothing can be reused).
    pub fn drain_finished_with_dirty(&mut self) -> Vec<(CommGraph, Vec<NodeId>)> {
        let graphs = std::mem::take(&mut self.finished);
        let mut dirty = std::mem::take(&mut self.dirty);
        graphs
            .into_iter()
            .enumerate()
            .map(|(i, g)| {
                let d = match dirty.get_mut(i) {
                    Some(d) => std::mem::take(d),
                    None => g.nodes().to_vec(),
                };
                (g, d)
            })
            .collect()
    }

    /// Finish the stream: close the open window and return all remaining
    /// graphs in time order.
    pub fn finish(mut self) -> Vec<CommGraph> {
        if let Some(b) = self.current.take() {
            self.close(b);
        }
        self.finished
    }

    /// Finish the stream, pairing every remaining graph with its dirty set
    /// (see [`WindowedBuilder::drain_finished_with_dirty`]).
    pub fn finish_with_dirty(mut self) -> Vec<(CommGraph, Vec<NodeId>)> {
        if let Some(b) = self.current.take() {
            self.close(b);
        }
        self.drain_finished_with_dirty()
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
    fn windowed_builder_rolls_hourly() {
        let mut wb = WindowedBuilder::new(Facet::Ip, 3600);
        wb.add(&rec(0, 1, 40_000, 2, 443, 100, 10));
        wb.add(&rec(3599, 1, 40_001, 2, 443, 100, 10));
        wb.add(&rec(3600, 1, 40_002, 2, 443, 100, 10));
        wb.add(&rec(7300, 1, 40_003, 2, 443, 100, 10));
        let graphs = wb.finish();
        assert_eq!(graphs.len(), 3);
        assert_eq!(graphs[0].window_start(), 0);
        assert_eq!(graphs[0].totals().conns, 2);
        assert_eq!(graphs[1].window_start(), 3600);
        assert_eq!(graphs[2].window_start(), 7200);
    }

    #[test]
    fn records_behind_closed_windows_drop_deterministically() {
        let mut wb = WindowedBuilder::new(Facet::Ip, 60);
        assert!(wb.add(&rec(0, 1, 40_000, 2, 443, 100, 10)));
        assert!(wb.add(&rec(65, 1, 40_001, 2, 443, 100, 10)), "rolls to window 60");
        // Window 0 closed when ts 65 rolled; a straggler from it must not
        // re-open window 0 (which would emit it twice), nor land in 60.
        assert!(!wb.add(&rec(59, 1, 40_002, 2, 443, 700, 70)));
        assert_eq!(wb.dropped_behind(), 1);
        // Jitter *within* the open window is still accepted.
        assert!(wb.add(&rec(61, 1, 40_003, 2, 443, 100, 10)));
        let graphs = wb.finish();
        assert_eq!(graphs.len(), 2, "each window emitted exactly once");
        assert_eq!(graphs[0].window_start(), 0);
        assert_eq!(graphs[0].totals().conns, 1, "the straggler is excluded");
        assert_eq!(graphs[1].totals().conns, 2);
    }

    #[test]
    fn survives_dedup_matches_builder_keep_rule() {
        let both: HashSet<Ipv4Addr> = [ip(1), ip(2)].into_iter().collect();
        let (flow, mirror) =
            (rec(0, 1, 40_000, 2, 443, 100, 10), rec(0, 1, 40_000, 2, 443, 100, 10).mirrored());
        let survives = survives_vantage_dedup;
        assert_ne!(survives(&both, &flow), survives(&both, &mirror));
        // What the free function says is what the builder keeps.
        let mut b = GraphBuilder::new(Facet::Ip, 0, 60).with_monitored(both);
        b.add_all([&flow, &mirror]);
        assert_eq!(b.record_counts(), (2, 1));
        // Only one endpoint monitored ⇒ single vantage, both orientations kept.
        let half: HashSet<Ipv4Addr> = [ip(2)].into_iter().collect();
        assert!(survives(&half, &flow) && survives(&half, &mirror));
        // No inventory ⇒ everything survives.
        assert!(survives(&HashSet::new(), &flow) && survives(&HashSet::new(), &mirror));
    }

    #[test]
    fn drain_finished_is_incremental() {
        let mut wb = WindowedBuilder::new(Facet::Ip, 60);
        wb.add(&rec(0, 1, 40_000, 2, 443, 1, 1));
        assert!(wb.drain_finished().is_empty(), "window still open");
        wb.add(&rec(60, 1, 40_001, 2, 443, 1, 1));
        let done = wb.drain_finished();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].window_start(), 0);
    }

    #[test]
    fn dirty_tracking_marks_first_window_fully_dirty() {
        let mut wb = WindowedBuilder::new(Facet::Ip, 60).with_dirty_tracking();
        wb.add(&rec(0, 1, 40_000, 2, 443, 100, 10));
        wb.add(&rec(60, 1, 40_001, 2, 443, 100, 10));
        let out = wb.finish_with_dirty();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, out[0].0.nodes().to_vec(), "no baseline ⇒ all dirty");
        assert!(out[1].1.is_empty(), "identical second window ⇒ clean");
    }

    #[test]
    fn dirty_tracking_flags_only_changed_nodes() {
        let mut wb = WindowedBuilder::new(Facet::Ip, 60).with_dirty_tracking();
        // Window 0: edges (1,2) and (3,4). Window 1: (1,2) identical, (3,4)
        // replaced by (3,5).
        wb.add(&rec(0, 1, 40_000, 2, 443, 100, 10));
        wb.add(&rec(0, 3, 40_000, 4, 443, 100, 10));
        wb.add(&rec(60, 1, 40_000, 2, 443, 100, 10));
        wb.add(&rec(60, 3, 40_000, 5, 443, 100, 10));
        let out = wb.finish_with_dirty();
        let dirty = &out[1].1;
        let want: Vec<NodeId> = [3, 4, 5].into_iter().map(|d| NodeId::Ip(ip(d))).collect();
        assert_eq!(dirty, &want);
    }

    #[test]
    fn untracked_drain_reports_everything_dirty() {
        let mut wb = WindowedBuilder::new(Facet::Ip, 60);
        wb.add(&rec(0, 1, 40_000, 2, 443, 100, 10));
        let out = wb.finish_with_dirty();
        assert_eq!(out[0].1.len(), 2);
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
