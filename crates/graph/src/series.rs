//! Time series of graph snapshots (the *dynamic* in dynamic communication
//! graphs).
//!
//! A [`GraphSequence`] holds consecutive windows of one facet and answers the
//! questions the paper's Figure 5 timelapse poses: how persistent are the
//! communication patterns hour over hour, and which windows broke from the
//! pattern?

use crate::diff::{diff, GraphDiff};
use crate::error::{Error, Result};
use crate::graph::CommGraph;
use serde::Serialize;

/// Consecutive snapshots of the same facet, in time order.
#[derive(Debug, Default)]
pub struct GraphSequence {
    graphs: Vec<CommGraph>,
}

/// Scalar persistence metrics between adjacent windows.
#[derive(Debug, Clone, Serialize)]
pub struct PersistenceReport {
    /// Edge-set Jaccard similarity per adjacent pair.
    pub(crate) edge_jaccard: Vec<f64>,
    /// Mean edge Jaccard across the sequence.
    pub mean_edge_jaccard: f64,
    /// Index (into adjacent pairs) of the least-similar transition, if any.
    pub most_changed_transition: Option<usize>,
}

impl GraphSequence {
    /// Build from pre-ordered snapshots, validating facet and time order.
    pub fn from_graphs(graphs: Vec<CommGraph>) -> Result<Self> {
        let mut s = GraphSequence::default();
        for g in graphs {
            s.push(g)?;
        }
        Ok(s)
    }

    /// Append the next window. It must share the facet of, and start no
    /// earlier than the end of, the previous window.
    pub(crate) fn push(&mut self, g: CommGraph) -> Result<()> {
        if let Some(last) = self.graphs.last() {
            if last.facet_name() != g.facet_name() {
                return Err(Error::Incompatible(format!(
                    "sequence is {}, pushed {}",
                    last.facet_name(),
                    g.facet_name()
                )));
            }
            if g.window_start() < last.window_start() + last.window_len() {
                return Err(Error::Incompatible(format!(
                    "window starting {} overlaps previous window",
                    g.window_start()
                )));
            }
        }
        self.graphs.push(g);
        Ok(())
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when no windows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The snapshots, in time order.
    pub fn graphs(&self) -> &[CommGraph] {
        &self.graphs
    }

    /// Diff between windows `i` and `i + 1`.
    pub fn diff_adjacent(&self, i: usize, change_ratio: f64) -> Result<GraphDiff> {
        if i + 1 >= self.graphs.len() {
            return Err(Error::InvalidConfig(format!(
                "no adjacent pair at index {i} in a {}-window sequence",
                self.graphs.len()
            )));
        }
        Ok(diff(&self.graphs[i], &self.graphs[i + 1], change_ratio))
    }

    /// Persistence metrics across all adjacent pairs: the edge sets' Jaccard
    /// similarity, which no volume-change ratio moves.
    pub fn persistence(&self) -> PersistenceReport {
        let edge_jaccard: Vec<f64> =
            self.graphs.windows(2).map(|w| diff(&w[0], &w[1], 1.0).edge_jaccard).collect();
        let mean_edge_jaccard = if edge_jaccard.is_empty() {
            1.0
        } else {
            edge_jaccard.iter().sum::<f64>() / edge_jaccard.len() as f64
        };
        let most_changed_transition =
            edge_jaccard.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
        PersistenceReport { edge_jaccard, mean_edge_jaccard, most_changed_transition }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::stats::EdgeStats;
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    fn graph(start: u64, edges: &[(u8, u8, u64)]) -> CommGraph {
        let mut m = HashMap::new();
        for &(a, b, bytes) in edges {
            m.insert(
                (NodeId::Ip(Ipv4Addr::new(10, 0, 0, a)), NodeId::Ip(Ipv4Addr::new(10, 0, 0, b))),
                EdgeStats { bytes_fwd: bytes, ..Default::default() },
            );
        }
        CommGraph::from_edge_map("ip", start, 3600, m)
    }

    #[test]
    fn push_enforces_time_order() {
        let mut s = GraphSequence::default();
        s.push(graph(0, &[(1, 2, 1)])).unwrap();
        s.push(graph(3600, &[(1, 2, 1)])).unwrap();
        assert!(s.push(graph(1800, &[(1, 2, 1)])).is_err(), "overlap rejected");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn push_enforces_same_facet() {
        let mut s = GraphSequence::default();
        s.push(graph(0, &[(1, 2, 1)])).unwrap();
        let other = CommGraph::from_edge_map("ip-port", 3600, 3600, HashMap::new());
        assert!(matches!(s.push(other), Err(Error::Incompatible(_))));
    }

    #[test]
    fn persistence_of_stable_sequence_is_high() {
        let s = GraphSequence::from_graphs(vec![
            graph(0, &[(1, 2, 100), (2, 3, 50)]),
            graph(3600, &[(1, 2, 110), (2, 3, 45)]),
            graph(7200, &[(1, 2, 95), (2, 3, 55)]),
        ])
        .unwrap();
        let p = s.persistence();
        assert_eq!(p.edge_jaccard, vec![1.0, 1.0]);
        assert_eq!(p.mean_edge_jaccard, 1.0);
    }

    #[test]
    fn persistence_flags_the_disrupted_hour() {
        let s = GraphSequence::from_graphs(vec![
            graph(0, &[(1, 2, 100), (2, 3, 50)]),
            graph(3600, &[(1, 2, 100), (2, 3, 50)]),
            graph(7200, &[(7, 8, 9)]), // everything changed
        ])
        .unwrap();
        let p = s.persistence();
        assert_eq!(p.most_changed_transition, Some(1));
        assert!(p.edge_jaccard[1] < p.edge_jaccard[0]);
    }

    #[test]
    fn diff_adjacent_bounds_checked() {
        let s = GraphSequence::from_graphs(vec![graph(0, &[(1, 2, 1)])]).unwrap();
        assert!(s.diff_adjacent(0, 2.0).is_err());
    }

    #[test]
    fn empty_sequence_is_consistent() {
        let s = GraphSequence::default();
        assert!(s.is_empty());
        let p = s.persistence();
        assert_eq!(p.mean_edge_jaccard, 1.0);
        assert!(p.most_changed_transition.is_none());
    }
}
