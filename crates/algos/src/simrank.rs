//! SimRank and SimRank++ structural similarity (\[54\], \[28, 60\]).
//!
//! SimRank scores two nodes by the similarity of their neighbors,
//! recursively: "two objects are similar if they are referenced by similar
//! objects." Uniquely among the paper's candidates it can discover roles
//! that are not evident from one-hop neighbor overlap — at higher cost, and
//! (per the paper's experiments and ours) without better quality on cloud
//! communication graphs.
//!
//! Implementation: the matrix fixed-point form `S ← C · Wᵀ S W` with
//! column-normalized adjacency `W`, diagonal pinned to 1 each iteration —
//! O(n³) per iteration rather than the naive O(n² d²). SimRank++ adds
//! (a) weighted transition matrices with a *spread* factor `e^{-var}` that
//! discounts high-variance neighbors and (b) an *evidence* factor
//! `1 − 2^{−|common neighbors|}` applied to the converged scores.

use crate::wgraph::WeightedGraph;
use linalg::par::Parallelism;
use linalg::sym::SymMatrix;
use linalg::Matrix;

/// Configuration for SimRank iterations.
#[derive(Debug, Clone, Copy)]
pub struct SimRankConfig {
    /// Decay constant `C` in `(0, 1)`; 0.8 is the literature default.
    pub decay: f64,
    /// Fixed-point iterations; 5 suffices for 1e-3-level convergence.
    pub iterations: usize,
}

impl Default for SimRankConfig {
    fn default() -> Self {
        SimRankConfig { decay: 0.8, iterations: 5 }
    }
}

/// Plain SimRank similarity matrix at the default [`Parallelism`].
pub fn simrank(g: &WeightedGraph, cfg: SimRankConfig) -> SymMatrix {
    simrank_with(g, cfg, Parallelism::default())
}

/// Plain SimRank with an explicit worker count. The matrix products inside
/// the fixed-point iteration are double-buffered and row-partitioned; each
/// output row is computed in the serial loop order, so results are
/// bit-for-bit identical at any worker count.
pub fn simrank_with(g: &WeightedGraph, cfg: SimRankConfig, parallelism: Parallelism) -> SymMatrix {
    let w = transition_matrix(g, false);
    iterate(g.node_count(), &w, cfg, parallelism)
}

/// SimRank++: weight- and spread-aware transitions plus the evidence factor,
/// with an explicit worker count (same determinism contract as
/// [`simrank_with`]).
pub fn simrank_pp_with(
    g: &WeightedGraph,
    cfg: SimRankConfig,
    parallelism: Parallelism,
) -> SymMatrix {
    let w = transition_matrix(g, true);
    let mut s = iterate(g.node_count(), &w, cfg, parallelism);
    apply_evidence(g, &mut s, parallelism);
    s
}

/// Column-normalized (optionally weighted+spread) transition matrix:
/// `W[i][a] = spread(i) · w(a,i) / Σ_k w(a,k)` for `i ∈ N(a)`.
fn transition_matrix(g: &WeightedGraph, weighted: bool) -> Matrix {
    let n = g.node_count();
    let mut w = Matrix::zeros(n, n);
    // Spread factor per *neighbor* node i: e^{-variance of weights incident
    // to i}, computed over normalized incident weights. Plain SimRank uses 1.
    let spread: Vec<f64> = if weighted {
        (0..n as u32)
            .map(|i| {
                let nbrs = g.neighbors(i);
                if nbrs.is_empty() {
                    return 1.0;
                }
                let total: f64 = nbrs.iter().map(|&(_, wt)| wt).sum();
                if total == 0.0 {
                    return 1.0;
                }
                let mean = 1.0 / nbrs.len() as f64;
                let var = nbrs
                    .iter()
                    .map(|&(_, wt)| {
                        let p = wt / total;
                        (p - mean) * (p - mean)
                    })
                    .sum::<f64>()
                    / nbrs.len() as f64;
                (-var).exp()
            })
            .collect()
    } else {
        vec![1.0; n]
    };

    for a in 0..n as u32 {
        let nbrs = g.neighbors(a);
        if nbrs.is_empty() {
            continue;
        }
        let denom: f64 =
            if weighted { nbrs.iter().map(|&(_, wt)| wt).sum() } else { nbrs.len() as f64 };
        if denom == 0.0 {
            continue;
        }
        for &(i, wt) in nbrs {
            let p = if weighted { wt / denom } else { 1.0 / denom };
            // Accumulate (parallel edges merge).
            w[(i as usize, a as usize)] += spread[i as usize] * p;
        }
    }
    w
}

/// Fixed-point iteration `S ← C · Wᵀ S W`, diagonal pinned to 1. The two
/// matrix products per iteration run row-partitioned under `parallelism`
/// (double-buffered: each reads the previous iterate, writes a fresh one);
/// the converged upper triangle is packed into a [`SymMatrix`].
fn iterate(n: usize, w: &Matrix, cfg: SimRankConfig, parallelism: Parallelism) -> SymMatrix {
    assert!((0.0..1.0).contains(&cfg.decay) && cfg.decay > 0.0, "decay must be in (0,1)");
    let mut s = Matrix::identity(n);
    let wt = w.transpose();
    for _ in 0..cfg.iterations {
        // Both products are n×n by construction; should a shape mismatch
        // ever slip in, stop iterating and pack the last good iterate
        // instead of panicking mid-pipeline.
        let Ok(mut next) =
            wt.matmul_with(&s, parallelism).and_then(|x| x.matmul_with(w, parallelism))
        else {
            break;
        };
        for i in 0..n {
            for j in 0..n {
                next[(i, j)] *= cfg.decay;
            }
            next[(i, i)] = 1.0;
        }
        s = next;
    }
    let mut out = SymMatrix::zeros(n);
    out.fill_upper(parallelism, |i, j| s[(i, j)]);
    out
}

/// Evidence factor `1 − 2^{−|N(a) ∩ N(b)|}` applied off-diagonal.
fn apply_evidence(g: &WeightedGraph, s: &mut SymMatrix, parallelism: Parallelism) {
    let n = g.node_count();
    let sets: Vec<Vec<u32>> = (0..n as u32).map(|u| g.neighbor_set(u)).collect();
    s.update_upper(parallelism, |a, b, v| {
        if a == b {
            return v;
        }
        let common = intersection_size(&sets[a], &sets[b]);
        v * (1.0 - 0.5f64.powi(common as i32))
    });
}

fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two replicas (0,1) sharing servers (2,3); outsider 4 attached to 3.
    fn replica_graph() -> WeightedGraph {
        WeightedGraph::from_edges(
            5,
            &[(0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (4, 3, 1.0)],
        )
    }

    #[test]
    fn self_similarity_is_one() {
        let s = simrank(&replica_graph(), SimRankConfig::default());
        for i in 0..s.n() {
            assert_eq!(s[(i, i)], 1.0);
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let s = simrank(&replica_graph(), SimRankConfig::default());
        for i in 0..5 {
            for j in 0..5 {
                assert!((s[(i, j)] - s[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn replicas_more_similar_than_strangers() {
        let s = simrank(&replica_graph(), SimRankConfig::default());
        // Full-overlap replicas can tie with a partially-overlapping node
        // (both reduce to the same neighbor-pair average here) but must
        // never lose to it, and must clearly beat the client-server pair.
        assert!(
            s[(0, 1)] >= s[(0, 4)] - 1e-12,
            "replicas {} must not lose to frontend-vs-outsider {}",
            s[(0, 1)],
            s[(0, 4)]
        );
        assert!(s[(0, 1)] > s[(0, 2)], "replicas must beat client-server similarity");
    }

    #[test]
    fn scores_bounded_by_one() {
        let s = simrank(&replica_graph(), SimRankConfig::default());
        for &v in s.data() {
            assert!((0.0..=1.0 + 1e-9).contains(&v), "score {v} out of range");
        }
    }

    #[test]
    fn known_two_step_value() {
        // Path graph 0-1-2: s(0,2) after convergence = C (they share the
        // single neighbor 1 whose self-similarity is 1).
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let s = simrank(&g, SimRankConfig { decay: 0.8, iterations: 10 });
        assert!((s[(0, 2)] - 0.8).abs() < 1e-6, "s(0,2) = {}", s[(0, 2)]);
    }

    #[test]
    fn isolated_nodes_score_zero() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1.0)]);
        let s = simrank(&g, SimRankConfig::default());
        assert_eq!(s[(0, 2)], 0.0);
        assert_eq!(s[(2, 2)], 1.0, "self-similarity still pinned");
    }

    #[test]
    fn simrank_pp_evidence_discounts_thin_overlap() {
        // 0 and 1 share ONE neighbor; 2 and 3 share TWO neighbors.
        let g = WeightedGraph::from_edges(
            8,
            &[(0, 6, 1.0), (1, 6, 1.0), (2, 6, 1.0), (2, 7, 1.0), (3, 6, 1.0), (3, 7, 1.0)],
        );
        let spp = simrank_pp_with(&g, SimRankConfig::default(), Parallelism::default());
        assert!(
            spp[(2, 3)] > spp[(0, 1)],
            "two shared neighbors ({}) must outscore one ({})",
            spp[(2, 3)],
            spp[(0, 1)]
        );
    }

    #[test]
    fn simrank_pp_respects_weights() {
        // 0 talks almost entirely to 2; 1 talks almost entirely to 3.
        // A third node 4 splits evenly. SimRank++ should rate (0,1) lower
        // than plain structural equivalence would suggest, without crashing
        // on the weighting path.
        let g = WeightedGraph::from_edges(
            5,
            &[(0, 2, 100.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 100.0), (4, 2, 50.0), (4, 3, 50.0)],
        );
        let spp = simrank_pp_with(&g, SimRankConfig::default(), Parallelism::default());
        let s = simrank(&g, SimRankConfig::default());
        // Unweighted SimRank sees 0 and 1 as structurally identical; the
        // weighted variant must not score them higher than it does.
        assert!(spp[(0, 1)] <= s[(0, 1)] + 1e-9);
        for &v in spp.data() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn empty_graph() {
        let s = simrank(&WeightedGraph::from_edges(0, &[]), SimRankConfig::default());
        assert_eq!(s.n(), 0);
    }

    #[test]
    fn parallel_simrank_bitwise_matches_serial() {
        let g = replica_graph();
        let cfg = SimRankConfig::default();
        let serial = simrank_with(&g, cfg, Parallelism::serial());
        let serial_pp = simrank_pp_with(&g, cfg, Parallelism::serial());
        for workers in [2, 8] {
            let p = Parallelism::new(workers);
            assert_eq!(simrank_with(&g, cfg, p), serial, "{workers} workers");
            assert_eq!(simrank_pp_with(&g, cfg, p), serial_pp, "{workers} workers (pp)");
        }
    }
}
