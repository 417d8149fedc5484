//! Per-edge traffic time series — the paper's second graph representation:
//! "We can generate a time-series of graphs **or embed timeseries in the
//! node and edge attributes of one graph**."
//!
//! [`EdgeSeriesBuilder`] accumulates, per undirected node pair, a byte
//! series at the summary cadence. The series power analyses a scalar edge
//! weight cannot: correlating edges (do these two conversations breathe
//! together? — the temporal cousin of the proportionality policy), and
//! profiling an edge's activity shape (constant control-plane hum vs bursty
//! batch transfer).

use crate::node::{Facet, NodeId};
use flowlog::record::ConnSummary;
use flowlog::time::bucket_index;
use serde::Serialize;
use std::collections::HashMap;

/// A byte series for one edge: one slot per interval of the window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdgeSeries {
    /// Bytes per interval (dense; quiet intervals are zero).
    pub(crate) bytes: Vec<u64>,
}

impl EdgeSeries {
    /// Total bytes over the window.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Fraction of intervals with any traffic.
    pub fn activity(&self) -> f64 {
        if self.bytes.is_empty() {
            return 0.0;
        }
        self.bytes.iter().filter(|&&b| b > 0).count() as f64 / self.bytes.len() as f64
    }

    /// Coefficient of variation (σ/µ) of the per-interval bytes: ~0 for a
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

/// Accumulates per-edge byte series over a window of `intervals` slots of
/// `interval_secs` each, starting at `window_start`.
#[derive(Debug)]
pub struct EdgeSeriesBuilder {
    facet: Facet,
    window_start: u64,
    interval_secs: u64,
    intervals: usize,
    series: HashMap<(NodeId, NodeId), EdgeSeries>,
}

impl EdgeSeriesBuilder {
    /// New builder covering `[window_start, window_start + intervals×secs)`.
    ///
    /// # Panics
    /// Panics if `interval_secs` or `intervals` is zero.
    pub fn new(facet: Facet, window_start: u64, interval_secs: u64, intervals: usize) -> Self {
        assert!(interval_secs > 0, "interval must be positive");
        assert!(intervals > 0, "need at least one interval");
        EdgeSeriesBuilder { facet, window_start, interval_secs, intervals, series: HashMap::new() }
    }

    /// Offer one record; records outside the window are ignored.
    pub fn add(&mut self, r: &ConnSummary) {
        if r.ts < self.window_start {
            return;
        }
        let slot = (bucket_index(r.ts, self.interval_secs)
            - bucket_index(self.window_start, self.interval_secs)) as usize;
        if slot >= self.intervals {
            return;
        }
        let (a, b) = self.facet.endpoints(r);
        let key = if a <= b { (a, b) } else { (b, a) };
        let intervals = self.intervals;
        let s = self.series.entry(key).or_insert_with(|| EdgeSeries { bytes: vec![0; intervals] });
        s.bytes[slot] += r.bytes_total();
    }

    /// Offer a batch.
    pub fn add_all<'a>(&mut self, records: impl IntoIterator<Item = &'a ConnSummary>) {
        for r in records {
            self.add(r);
        }
    }

    /// Number of edges with series.
    pub fn edge_count(&self) -> usize {
        self.series.len()
    }

    /// Iterate all `(edge, series)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &EdgeSeries)> {
        self.series.iter()
    }

    /// The most-correlated other edge for `edge`, among edges above
    /// `min_total` bytes — "who breathes with whom".
    pub fn most_correlated(
        &self,
        edge: &(NodeId, NodeId),
        min_total: u64,
    ) -> Option<((NodeId, NodeId), f64)> {
        let base = self.series.get(edge)?;
        self.series
            .iter()
            .filter(|(k, s)| *k != edge && s.total() >= min_total)
            .map(|(k, s)| (*k, correlation(base, s)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlog::record::FlowKey;
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

    #[test]
    fn series_accumulate_per_slot() {
        let mut b = EdgeSeriesBuilder::new(Facet::Ip, 0, 60, 5);
        b.add(&rec(0, 1, 2, 100));
        b.add(&rec(30, 1, 2, 50));
        b.add(&rec(240, 1, 2, 10));
        let s = &b.series[&(node(1), node(2))];
        assert_eq!(s.bytes, vec![150, 0, 0, 0, 10]);
        assert_eq!(s.total(), 160);
        assert!((s.activity() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn direction_independent_lookup() {
        let mut b = EdgeSeriesBuilder::new(Facet::Ip, 0, 60, 2);
        b.add(&rec(0, 2, 1, 100)); // reported from the higher endpoint
        assert!(b.series.contains_key(&(node(1), node(2))), "stored low endpoint first");
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn out_of_window_records_ignored() {
        let mut b = EdgeSeriesBuilder::new(Facet::Ip, 3600, 60, 2);
        b.add(&rec(0, 1, 2, 100)); // before
        b.add(&rec(7300, 1, 2, 100)); // after
        assert_eq!(b.edge_count(), 0);
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
        let mut b = EdgeSeriesBuilder::new(Facet::Ip, 0, 60, 4);
        // Edge (1,2) and (3,4) rise together; (5,6) is flat.
        for (slot, volume) in [(0u64, 10u64), (1, 40), (2, 90), (3, 20)] {
            b.add(&rec(slot * 60, 1, 2, volume));
            b.add(&rec(slot * 60, 3, 4, volume * 7));
            b.add(&rec(slot * 60, 5, 6, 50));
        }
        let (best, corr) = b.most_correlated(&(node(1), node(2)), 1).expect("other edges exist");
        assert_eq!(best, (node(3), node(4)));
        assert!(corr > 0.99);
    }
}
