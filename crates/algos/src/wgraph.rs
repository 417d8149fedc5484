//! A minimal weighted undirected graph shared by the clustering algorithms.

use commgraph_graph::CommGraph;
use linalg::sym::SymMatrix;

/// Undirected weighted graph with dense `0..n` node ids.
///
/// Each edge is stored in both endpoint lists (self-loops once). Weights
/// must be non-negative; zero-weight edges are dropped at construction.
///
/// Adjacency lists are kept sorted by neighbor id with **at most one entry
/// per neighbor**: re-adding an existing edge coalesces the weights into
/// the stored entry. (Storing parallel edges separately used to
/// double-count weight in modularity accumulation and yield the same
/// neighbor twice in Louvain's neighbor-community scan.)
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    adj: Vec<Vec<(u32, f64)>>,
    total_weight: f64,
}

impl WeightedGraph {
    /// Graph with `n` isolated nodes.
    pub(crate) fn new(n: usize) -> Self {
        WeightedGraph { adj: vec![Vec::new(); n], total_weight: 0.0 }
    }

    /// Build from an edge list; `(u, v, w)` with `u == v` allowed (self-loop).
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or negative/non-finite weights.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut g = WeightedGraph::new(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Add an undirected edge. Zero weights are ignored; adding an edge
    /// that already exists coalesces into the stored entry (weights sum),
    /// so `(u, v, a)` then `(u, v, b)` is exactly `(u, v, a + b)`.
    pub(crate) fn add_edge(&mut self, u: u32, v: u32, w: f64) {
        assert!(w.is_finite() && w >= 0.0, "edge weight must be finite and non-negative");
        assert!((u as usize) < self.adj.len() && (v as usize) < self.adj.len(), "endpoint range");
        if w == 0.0 {
            return;
        }
        Self::coalesce_into(&mut self.adj[u as usize], v, w);
        if u != v {
            Self::coalesce_into(&mut self.adj[v as usize], u, w);
        }
        self.total_weight += w;
    }

    /// Merge `(v, w)` into a sorted adjacency list, keeping it sorted and
    /// duplicate-free. Appends (the common construction order) are O(1).
    fn coalesce_into(list: &mut Vec<(u32, f64)>, v: u32, w: f64) {
        match list.last() {
            Some(&(last, _)) if last < v => list.push((v, w)),
            _ => match list.binary_search_by_key(&v, |&(x, _)| x) {
                Ok(pos) => list[pos].1 += w,
                Err(pos) => list.insert(pos, (v, w)),
            },
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Sum of all edge weights (each undirected edge once).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Neighbors of `u` with weights, sorted by neighbor id with one entry
    /// per neighbor. A self-loop appears once.
    pub(crate) fn neighbors(&self, u: u32) -> &[(u32, f64)] {
        &self.adj[u as usize]
    }

    /// Weighted degree of `u`: sum of incident weights, self-loops counted
    /// twice (the convention modularity expects).
    pub(crate) fn weighted_degree(&self, u: u32) -> f64 {
        self.adj[u as usize].iter().map(|&(v, w)| if v == u { 2.0 * w } else { w }).sum()
    }

    /// Neighbor id set (unweighted), excluding self-loops. Sorted and
    /// duplicate-free by the adjacency invariant.
    pub(crate) fn neighbor_set(&self, u: u32) -> Vec<u32> {
        self.adj[u as usize].iter().filter(|&&(n, _)| n != u).map(|&(n, _)| n).collect()
    }

    /// Build from a communication graph, weighting each edge with
    /// `weight_of` (e.g. bytes, connections).
    pub fn from_comm_graph(
        g: &CommGraph,
        weight_of: impl Fn(&commgraph_graph::EdgeStats) -> f64,
    ) -> Self {
        let mut out = WeightedGraph::new(g.node_count());
        for i in 0..g.node_count() as u32 {
            for e in g.neighbors(i) {
                if e.node >= i {
                    out.add_edge(i, e.node, weight_of(&e.stats));
                }
            }
        }
        out
    }

    /// Build the *scored clique* of the paper's segmentation: a complete
    /// graph over the same nodes where edge weights are pairwise similarity
    /// scores. Scores below `min_score` are dropped to keep it sparse.
    pub fn from_similarity(scores: &SymMatrix, min_score: f64) -> Self {
        let n = scores.n();
        let mut g = WeightedGraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let score = scores[(i, j)];
                if score >= min_score && score > 0.0 {
                    g.add_edge(i as u32, j as u32, score);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_and_totals() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0), (2, 2, 1.0)]);
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.weighted_degree(0), 2.0);
        assert_eq!(g.weighted_degree(1), 5.0);
        assert_eq!(g.weighted_degree(2), 3.0 + 2.0, "self-loop counts twice");
    }

    #[test]
    fn neighbor_set_excludes_self_and_dedups() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (0, 1, 1.0), (0, 0, 5.0)]);
        assert_eq!(g.neighbor_set(0), vec![1]);
    }

    #[test]
    fn duplicate_edges_coalesce() {
        // Repeated (u, v) in either orientation merges into one entry.
        let g = WeightedGraph::from_edges(3, &[(0, 1, 0.5), (1, 0, 0.25), (0, 1, 0.25)]);
        assert_eq!(g.neighbors(0), &[(1, 1.0)]);
        assert_eq!(g.neighbors(1), &[(0, 1.0)]);
        assert_eq!(g.total_weight(), 1.0);
        assert_eq!(g.weighted_degree(0), 1.0);

        // Duplicate self-loops coalesce too, still stored once.
        let g = WeightedGraph::from_edges(2, &[(1, 1, 2.0), (1, 1, 3.0)]);
        assert_eq!(g.neighbors(1), &[(1, 5.0)]);
        assert_eq!(g.total_weight(), 5.0);
        assert_eq!(g.weighted_degree(1), 10.0, "self-loop counts twice");
    }

    #[test]
    fn adjacency_is_sorted_regardless_of_insertion_order() {
        let g = WeightedGraph::from_edges(5, &[(3, 1, 1.0), (3, 4, 1.0), (3, 0, 1.0), (3, 2, 1.0)]);
        let ids: Vec<u32> = g.neighbors(3).iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, vec![0, 1, 2, 4]);
    }

    #[test]
    fn zero_weight_edges_dropped() {
        let g = WeightedGraph::from_edges(2, &[(0, 1, 0.0)]);
        assert_eq!(g.total_weight(), 0.0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        WeightedGraph::from_edges(2, &[(0, 1, -1.0)]);
    }

    #[test]
    fn similarity_clique_thresholds() {
        let mut scores = SymMatrix::zeros(3);
        for (i, j, v) in
            [(0, 0, 1.0), (0, 1, 0.9), (0, 2, 0.05), (1, 1, 1.0), (1, 2, 0.5), (2, 2, 1.0)]
        {
            scores.set(i, j, v);
        }
        let g = WeightedGraph::from_similarity(&scores, 0.1);
        assert_eq!(g.neighbors(0).len(), 1, "0-2 edge filtered by threshold");
        assert_eq!(g.neighbors(1).len(), 2);
    }
}
