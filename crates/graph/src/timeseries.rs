//! Per-edge traffic time series — the paper's second graph representation:
//! "We can generate a time-series of graphs **or embed timeseries in the
//! node and edge attributes of one graph**."
//!
//! The second is read off the first: [`edge_series`] lays the graphs a
//! window roll ([`crate::WindowedBuilder`]) hands out side by side, one slot
//! per window, and keys each edge's byte series by its node pair. The series
//! power analyses a scalar edge weight cannot: correlating edges (do these
//! two conversations breathe together? — the temporal cousin of the
//! proportionality policy, [`most_correlated`]), and profiling an edge's
//! activity shape (constant control-plane hum vs bursty batch transfer).

use crate::graph::CommGraph;
use crate::node::NodeId;
use serde::Serialize;
use std::collections::BTreeMap;

/// A byte series for one edge: one slot per window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdgeSeries {
    /// Bytes per window (dense; quiet windows are zero).
    pub bytes: Vec<u64>,
}

impl EdgeSeries {
    /// Total bytes over all windows.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Fraction of windows with any traffic.
    pub fn activity(&self) -> f64 {
        if self.bytes.is_empty() {
            return 0.0;
        }
        self.bytes.iter().filter(|&&b| b > 0).count() as f64 / self.bytes.len() as f64
    }

    /// Coefficient of variation (σ/µ) of the per-window bytes: ~0 for a
    /// steady hum, large for bursts. Zero-mean series return 0.
    pub fn burstiness(&self) -> f64 {
        let n = self.bytes.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = self.total() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var =
            self.bytes.iter().map(|&b| (b as f64 - mean) * (b as f64 - mean)).sum::<f64>() / n;
        var.sqrt() / mean
    }
}

/// Pearson correlation of two equal-length series; 0 when either is
/// constant.
pub fn correlation(a: &EdgeSeries, b: &EdgeSeries) -> f64 {
    let n = a.bytes.len().min(b.bytes.len());
    if n < 2 {
        return 0.0;
    }
    let (ma, mb) = (
        a.bytes[..n].iter().sum::<u64>() as f64 / n as f64,
        b.bytes[..n].iter().sum::<u64>() as f64 / n as f64,
    );
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let (da, db) = (a.bytes[i] as f64 - ma, b.bytes[i] as f64 - mb);
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va <= 1e-12 || vb <= 1e-12 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// One byte series per edge over `slots` windows from `start` (a window
/// start of the roll), read off the graphs one roll handed out: slot `i` is
/// the edge's bytes in the graph of the window at `start + i × window_len`,
/// zero where no graph covers it; graphs outside the span are skipped. Keys
/// are the graphs' `(lower, higher)` node pairs.
pub fn edge_series<'a>(
    graphs: impl IntoIterator<Item = &'a CommGraph>,
    start: u64,
    slots: usize,
) -> BTreeMap<(NodeId, NodeId), EdgeSeries> {
    let mut series = BTreeMap::new();
    for g in graphs {
        let slot = g.window_start().checked_sub(start).and_then(|d| d.checked_div(g.window_len()));
        let Some(slot) = slot.filter(|&s| s < slots as u64) else { continue };
        for i in 0..g.node_count() as u32 {
            for e in g.neighbors(i).iter().filter(|e| e.node >= i) {
                let s = series
                    .entry((g.node(i), g.node(e.node)))
                    .or_insert_with(|| EdgeSeries { bytes: vec![0; slots] });
                s.bytes[slot as usize] += e.stats.bytes();
            }
        }
    }
    series
}

/// The most-correlated other edge for `edge`, among the `series` of at
/// least `min_total` bytes — "who breathes with whom".
pub fn most_correlated(
    series: &BTreeMap<(NodeId, NodeId), EdgeSeries>,
    edge: &(NodeId, NodeId),
    min_total: u64,
) -> Option<((NodeId, NodeId), f64)> {
    let base = series.get(edge)?;
    series
        .iter()
        .filter(|(k, s)| *k != edge && s.total() >= min_total)
        .map(|(k, s)| (*k, correlation(base, s)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowedBuilder;
    use flowlog::record::{ConnSummary, FlowKey};
    use std::net::Ipv4Addr;

    fn rec(ts: u64, l: u8, r: u8, bytes: u64) -> ConnSummary {
        ConnSummary {
            ts,
            key: FlowKey::tcp(Ipv4Addr::new(10, 0, 0, l), 40_000, Ipv4Addr::new(10, 0, 0, r), 443),
            pkts_sent: bytes / 1000 + 1,
            pkts_rcvd: 0,
            bytes_sent: bytes,
            bytes_rcvd: 0,
        }
    }

    fn node(d: u8) -> NodeId {
        NodeId::Ip(Ipv4Addr::new(10, 0, 0, d))
    }

    type Series = BTreeMap<(NodeId, NodeId), EdgeSeries>;

    /// The series of `records` (in window order) through a 60 s roll.
    fn series_of(records: &[ConnSummary], start: u64, slots: usize) -> Series {
        let mut roll = WindowedBuilder::new(60);
        let mut graphs: Vec<CommGraph> = records.iter().filter_map(|r| roll.add(r).1).collect();
        graphs.extend(roll.finish());
        edge_series(&graphs, start, slots)
    }

    #[test]
    fn series_accumulate_per_slot() {
        let series = series_of(&[rec(0, 1, 2, 100), rec(30, 1, 2, 50), rec(240, 1, 2, 10)], 0, 5);
        let s = &series[&(node(1), node(2))];
        assert_eq!(s.bytes, vec![150, 0, 0, 0, 10]);
        assert_eq!(s.total(), 160);
        assert!((s.activity() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn direction_independent_lookup() {
        // Reported from the higher endpoint, then from the lower one.
        let series = series_of(&[rec(0, 2, 1, 100), rec(60, 1, 2, 5)], 0, 2);
        assert_eq!(series.len(), 1);
        assert_eq!(series[&(node(1), node(2))].bytes, vec![100, 5], "stored low endpoint first");
    }

    #[test]
    fn out_of_window_records_ignored() {
        let series = series_of(&[rec(0, 1, 2, 100), rec(7300, 1, 2, 100)], 3600, 2);
        assert!(series.is_empty(), "one window before the span, one after it");
    }

    #[test]
    fn burstiness_separates_hum_from_bursts() {
        let hum = EdgeSeries { bytes: vec![100, 100, 100, 100] };
        let burst = EdgeSeries { bytes: vec![0, 0, 400, 0] };
        assert!(hum.burstiness() < 0.01);
        assert!(burst.burstiness() > 1.5);
        assert_eq!(EdgeSeries { bytes: vec![] }.burstiness(), 0.0);
    }

    #[test]
    fn correlation_tracks_co_breathing() {
        let a = EdgeSeries { bytes: vec![10, 20, 30, 20, 10] };
        let b = EdgeSeries { bytes: vec![100, 200, 300, 200, 100] };
        let c = EdgeSeries { bytes: vec![300, 200, 100, 200, 300] };
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-9, "scaled copy ⇒ +1");
        assert!((correlation(&a, &c) + 1.0).abs() < 1e-9, "mirrored ⇒ −1");
        let flat = EdgeSeries { bytes: vec![5, 5, 5, 5, 5] };
        assert_eq!(correlation(&a, &flat), 0.0, "constant series correlate with nothing");
    }

    #[test]
    fn most_correlated_finds_the_coupled_edge() {
        // Edge (1,2) and (3,4) rise together; (5,6) is flat.
        let mut records = Vec::new();
        for (slot, volume) in [(0u64, 10u64), (1, 40), (2, 90), (3, 20)] {
            records.push(rec(slot * 60, 1, 2, volume));
            records.push(rec(slot * 60, 3, 4, volume * 7));
            records.push(rec(slot * 60, 5, 6, 50));
        }
        let series = series_of(&records, 0, 4);
        let (best, corr) =
            most_correlated(&series, &(node(1), node(2)), 1).expect("other edges exist");
        assert_eq!(best, (node(3), node(4)));
        assert!(corr > 0.99);
    }
}
