//! A minimal weighted undirected graph shared by the clustering algorithms.

use commgraph_graph::CommGraph;
use linalg::sym::SymMatrix;

/// Undirected weighted graph with dense `0..n` node ids, in CSR form.
///
/// Each edge is stored in both endpoint rows (self-loops once). Weights
/// must be non-negative; zero-weight edges are dropped at construction.
///
/// Rows are sorted by neighbor id with **at most one entry per neighbor**:
/// a repeated edge coalesces into one entry whose weight is the sum of its
/// copies in call order. (Storing parallel edges separately used to
/// double-count weight in modularity accumulation and yield the same
/// neighbor twice in Louvain's neighbor-community scan.)
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    /// Row `u` is `adj[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<usize>,
    adj: Vec<(u32, f64)>,
    total_weight: f64,
}

impl WeightedGraph {
    /// Build from an edge list; `(u, v, w)` with `u == v` allowed (self-loop).
    ///
    /// One stable counting sort by source places every edge in its rows in
    /// call order; a row is then sorted by neighbor (stably, and only when
    /// the calls did not already arrive in order) and its duplicates summed
    /// left to right. Every row entry, coalesced weight and `total_weight`
    /// (summed in call order) is therefore what adding the edges one at a
    /// time in list order into sorted, coalescing rows produces.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or negative/non-finite weights.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        let mut total_weight = 0.0;
        for &(u, v, w) in edges {
            assert!(w.is_finite() && w >= 0.0, "edge weight must be finite and non-negative");
            assert!((u as usize) < n && (v as usize) < n, "endpoint range");
            if w == 0.0 {
                continue;
            }
            offsets[u as usize + 1] += 1;
            if u != v {
                offsets[v as usize + 1] += 1;
            }
            total_weight += w;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut adj = vec![(0u32, 0.0f64); offsets[n]];
        let mut head = offsets[..n].to_vec();
        for &(u, v, w) in edges.iter().filter(|e| e.2 != 0.0) {
            adj[head[u as usize]] = (v, w);
            head[u as usize] += 1;
            if u != v {
                adj[head[v as usize]] = (u, w);
                head[v as usize] += 1;
            }
        }
        // Sort and coalesce each row, compacting the array left in place.
        let mut out = 0;
        for u in 0..n {
            let (lo, hi) = (offsets[u], offsets[u + 1]);
            let row = &mut adj[lo..hi];
            if !row.is_sorted_by(|a, b| a.0 < b.0) {
                row.sort_by_key(|&(v, _)| v);
            }
            offsets[u] = out;
            for k in lo..hi {
                let (v, w) = adj[k];
                if out > offsets[u] && adj[out - 1].0 == v {
                    adj[out - 1].1 += w;
                } else {
                    adj[out] = (v, w);
                    out += 1;
                }
            }
        }
        offsets[n] = out;
        adj.truncate(out);
        WeightedGraph { offsets, adj, total_weight }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sum of all edge weights (each undirected edge once).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Neighbors of `u` with weights, sorted by neighbor id with one entry
    /// per neighbor. A self-loop appears once.
    pub(crate) fn neighbors(&self, u: u32) -> &[(u32, f64)] {
        &self.adj[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Weighted degree of `u`: sum of incident weights, self-loops counted
    /// twice (the convention modularity expects).
    pub(crate) fn weighted_degree(&self, u: u32) -> f64 {
        self.neighbors(u).iter().map(|&(v, w)| if v == u { 2.0 * w } else { w }).sum()
    }

    /// Neighbor id set (unweighted), excluding self-loops. Sorted and
    /// duplicate-free by the adjacency invariant.
    pub(crate) fn neighbor_set(&self, u: u32) -> Vec<u32> {
        self.neighbors(u).iter().filter(|&&(n, _)| n != u).map(|&(n, _)| n).collect()
    }

    /// Build from a communication graph, weighting each edge with
    /// `weight_of` (e.g. bytes, connections).
    pub fn from_comm_graph(
        g: &CommGraph,
        weight_of: impl Fn(&commgraph_graph::EdgeStats) -> f64,
    ) -> Self {
        let mut edges = Vec::new();
        for i in 0..g.node_count() as u32 {
            for e in g.neighbors(i) {
                if e.node >= i {
                    edges.push((i, e.node, weight_of(&e.stats)));
                }
            }
        }
        WeightedGraph::from_edges(g.node_count(), &edges)
    }

    /// Build the *scored clique* of the paper's segmentation: a complete
    /// graph over the same nodes where edge weights are pairwise similarity
    /// scores. Scores below `min_score` are dropped to keep it sparse.
    pub fn from_similarity(scores: &SymMatrix, min_score: f64) -> Self {
        let n = scores.n();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let score = scores[(i, j)];
                if score >= min_score && score > 0.0 {
                    edges.push((i as u32, j as u32, score));
                }
            }
        }
        WeightedGraph::from_edges(n, &edges)
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

    /// Copies of one edge sum left to right in call order, whichever row
    /// they land in first and however the rows interleave.
    #[test]
    fn duplicates_sum_in_call_order() {
        let g = WeightedGraph::from_edges(
            3,
            &[(2, 0, 1.0), (0, 1, 0.1), (1, 2, 1.0), (1, 0, 0.2), (0, 1, 0.3)],
        );
        let want = (0.1 + 0.2) + 0.3;
        assert_ne!(want, 0.1 + (0.2 + 0.3), "the fixture tells the orders apart");
        assert_eq!(g.neighbors(0), &[(1, want), (2, 1.0)]);
        assert_eq!(g.neighbors(1), &[(0, want), (2, 1.0)]);
        assert_eq!(g.total_weight(), (((1.0 + 0.1) + 1.0) + 0.2) + 0.3);
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
